#!/usr/bin/env python3
"""Host cost of regenerating the paper's figures, end to end and per layer.

    python3 perfbench/run.py --workload overhead|stream|reduce|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` times whole passes over the workload's cells with tracing
off and prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` runs an untraced reference pass in a child
process, then at least two traced passes, and prints the exclusive
per-layer split.  Every cell's output is checked against the oracle in
``workloads.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--write-references`` recomputes the committed digests in
``references.json`` for the default and held-out seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("overhead", "stream", "reduce")
#: seeds with committed reference digests in ``references.json``
DEFAULT_SEED = 0
HELD_OUT_SEED = 20131001
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: the cheapest cell of each workload, run once untimed before measuring
WARMUP = {"overhead": "EulerMHD-256", "stream": "w64-r1", "reduce": "LU.D-64-identity"}
#: the exclusive split must sum to the traced wall time within this share
EXCLUSIVITY_TOLERANCE = 0.01
CHILD_TIMEOUT_S = 150
#: host-runtime counts: they depend on the allocator's history, so they are
#: reported but not required to repeat exactly across passes
HOST_COUNTS = ("gc.collections",)


class _Built(BaseException):
    """Raised at the first simulated event to end a set-up probe."""


def import_repro():
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def reference_digests(workload: str, seed: int) -> dict[str, str]:
    """Committed digests for ``seed``, else those of the seed-invariant cells.

    References exist for the default and the held-out seed; a cell whose
    digest is the same at both is seed-invariant and is checked at every
    seed against it.
    """
    with open(REFERENCES) as fh:
        refs = json.load(fh)[workload]
    if str(seed) in refs:
        return refs[str(seed)]
    default, held_out = refs[str(DEFAULT_SEED)], refs[str(HELD_OUT_SEED)]
    return {label: d for label, d in default.items() if held_out.get(label) == d}


def child(args: argparse.Namespace, probe: str) -> dict:
    """Run this script as ``--probe <probe>`` in a fresh interpreter."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--probe", probe,
    ]
    out = subprocess.run(
        cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=True, text=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def host_header() -> str:
    from repro.telemetry.hostprof import host_environment

    return f"# host {json.dumps(host_environment(), sort_keys=True)}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Oracle:
    """Checks every cell execution; counts attempts and failures."""

    def __init__(self, workload: str, seed: int, expected: dict | None = None, speed=None):
        self.reference = reference_digests(workload, seed)
        self.speed = speed  # a HostSpeed to also time in normalised seconds
        self.expected = dict(expected or {})  # label -> digest seen first
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, cell, seed: int):
        """Run one cell; returns (raw seconds, normalised seconds, outcome),
        or None when it raised.  Without a ``speed`` both times are raw."""
        self.attempted += 1
        try:
            if self.speed is not None:
                raw, normalised, outcome = self.speed.time(lambda: cell.run(seed))
            else:
                start = perf_counter()
                outcome = cell.run(seed)
                raw = normalised = perf_counter() - start
        except Exception:
            self.fail(cell.label, traceback.format_exc(limit=-3).strip())
            return None
        problems = list(outcome.problems)
        first = self.expected.setdefault(cell.label, outcome.digest)
        if outcome.digest != first:
            problems.append(f"digest {outcome.digest} != {first} seen earlier in this run")
        reference = self.reference.get(cell.label, outcome.digest)
        if outcome.digest != reference:
            problems.append(f"digest {outcome.digest} != committed reference {reference}")
        if problems:
            self.fail(cell.label, "; ".join(problems))
        return raw, normalised, outcome

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")
        print(f"FAIL {label}: {why}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failures)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


# -- child probes ---------------------------------------------------------------------


def probe_setup(args: argparse.Namespace) -> dict:
    """Import ``repro`` and build every cell's world up to its first event."""

    def build() -> None:
        workloads = import_repro()
        from repro.simt.kernel import Kernel

        def first_event(*_args, **_kwargs):
            raise _Built

        Kernel.run = first_event
        for cell in workloads.cells(args.workload, args.seed):
            try:
                cell.run(args.seed)
            except _Built:
                continue
            raise RuntimeError(f"{cell.label} finished without simulating an event")

    raw, normalised, _ = HostSpeed().time(build)
    return {"raw_s": raw, "setup_s": normalised}


def probe_pass(args: argparse.Namespace) -> dict:
    """One untraced pass: the reference digests and wall time of the traced run."""
    workloads = import_repro()
    oracle = Oracle(args.workload, args.seed)
    wall = 0.0
    for cell in workloads.cells(args.workload, args.seed):
        timed = oracle.run(cell, args.seed)
        if timed is not None:
            wall += timed[0]
    return {"digests": oracle.expected, "wall_s": wall, "failures": oracle.failures}


def write_references() -> None:
    workloads = import_repro()
    refs: dict = {}
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            digests = {}
            for cell in workloads.cells(workload):
                outcome = cell.run(seed)
                if outcome.problems:
                    raise SystemExit(f"{workload}/{cell.label}: {outcome.problems}")
                digests[cell.label] = outcome.digest
            refs.setdefault(workload, {})[str(seed)] = digests
            print(workload, seed, digests, flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- end-to-end run (tracing off) ---------------------------------------------------------


def end_to_end(args: argparse.Namespace) -> int:
    setups = [child(args, "setup") for _ in range(SETUP_REPEATS)]
    workloads = import_repro()
    print(host_header())
    cells = workloads.cells(args.workload, args.seed)
    oracle = Oracle(args.workload, args.seed, speed=HostSpeed())
    times: dict[str, list[float]] = {cell.label: [] for cell in cells}
    raw_times: dict[str, list[float]] = {cell.label: [] for cell in cells}
    for cell in cells:
        if cell.label == WARMUP[args.workload]:
            oracle.run(cell, args.seed)

    deadline = perf_counter() + args.seconds
    runs = 0
    while runs < len(cells) or perf_counter() < deadline:
        cell = cells[runs % len(cells)]
        gc.collect()  # start each timed cell without the previous one's garbage
        timed = oracle.run(cell, args.seed)
        if timed is not None:
            raw_times[cell.label].append(timed[0])
            times[cell.label].append(timed[1])
        runs += 1

    def median(samples: list[float]) -> float:
        return statistics.median(samples) if samples else float("nan")

    print(f"# workload {args.workload}, seed {args.seed}: {runs} timed cell runs")
    print(f"{'cell':<26} {'runs':>4} {'raw_s':>8} {'norm_s':>8}  digest")
    for cell in cells:
        label = cell.label
        print(
            f"{label:<26} {len(times[label]):>4} {median(raw_times[label]):>8.3f} "
            f"{median(times[label]):>8.3f}  {oracle.expected.get(label)}"
        )
    print(
        f"raw host seconds: pass {sum(map(median, raw_times.values())):.3f}, "
        f"set-up {statistics.median(s['raw_s'] for s in setups):.3f}"
    )
    correct = oracle.failed == 0 and all(times.values())
    metrics = {
        "wall_s": (sum(median(s) for s in times.values() if s), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.4f} {unit}")
    print(
        f"fail_frac = {oracle.failed / oracle.attempted:.4f} "
        f"({oracle.failed}/{oracle.attempted} cells)"
    )
    print(result_line(correct, oracle.attempted, oracle.failed, metrics))
    return 0


# -- traced run ---------------------------------------------------------------------------


def traced_run(args: argparse.Namespace) -> int:
    reference = child(args, "pass")
    workloads = import_repro()
    import tracer as layers

    tracer = layers.Tracer()
    tracer.install()
    print(host_header())
    cells = workloads.cells(args.workload, args.seed)
    oracle = Oracle(args.workload, args.seed, expected=reference["digests"])
    for failure in reference["failures"]:
        oracle.fail("untraced pass", failure)
    passes = []
    deadline = perf_counter() + args.seconds
    while len(passes) < 2 or perf_counter() < deadline:
        gc.collect()
        tracer.reset()
        start = perf_counter()
        events = 0
        for cell in cells:
            timed = oracle.run(cell, args.seed)
            if timed is not None:
                events += timed[2].events
        wall = perf_counter() - start
        passes.append({"wall_s": wall, "events": events, **tracer.snapshot()})
    tracer.uninstall()

    problems = check_trace(args.workload, passes, tracer.expect)
    for problem in problems:
        oracle.fail("trace", problem)
    wall = statistics.median(p["wall_s"] for p in passes)
    self_s = {
        layer: statistics.median(p["self_s"][layer] for p in passes)
        for layer in passes[0]["self_s"]
    }
    print(f"# workload {args.workload}, seed {args.seed}: {len(passes)} traced passes")
    print(f"{'layer':<12} {'self_s':>9} {'share':>7}  should move")
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        moves = layers.LAYERS.get(layer, ("-", "-"))
        print(f"{layer:<12} {seconds:>9.3f} {seconds / wall:>7.1%}  {moves[0]} on {moves[1]}")
    print(f"traced wall {wall:.3f} s, untraced {reference['wall_s']:.3f} s; "
          f"residual share {self_s[layers.RESIDUAL] / wall:.1%}")

    metrics = {}
    for layer, names in layers.COUNTERS.items():
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        for name in names:
            key = f"{layer}.{name}"
            unit = "B" if name.endswith("bytes") or name.startswith("bytes") else "count"
            metrics[key] = (passes[0]["counts"][key], unit)
    metrics["residual_s"] = (self_s[layers.RESIDUAL], "s")
    metrics["trace.overhead_ratio"] = (wall / reference["wall_s"], "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(result_line(oracle.failed == 0, oracle.attempted, oracle.failed, metrics))
    return 0


def check_trace(workload: str, passes: list[dict], expect: dict[str, tuple]) -> list[str]:
    """The exclusivity, observer-only repeat and coverage self-checks."""
    import tracer as layers

    problems = []
    first = passes[0]
    for i, p in enumerate(passes):
        total = sum(p["self_s"].values())
        if not p["balanced"]:
            problems.append(f"pass {i}: layer stack not balanced")
        if abs(total - p["wall_s"]) > EXCLUSIVITY_TOLERANCE * p["wall_s"]:
            problems.append(f"pass {i}: self times sum to {total:.3f} s of {p['wall_s']:.3f} s")
        changed = {
            key: (first["counts"][key], value)
            for key, value in p["counts"].items()
            if value != first["counts"][key] and key not in HOST_COUNTS
        }
        if changed:
            problems.append(f"pass {i}: counts differ from pass 0: {changed}")
    counts = first["counts"]
    if workload != "stream":
        for key in ("instrument.events", "analysis.events"):
            if counts[key] != first["events"]:
                problems.append(f"{key} {counts[key]} != report events_total {first['events']}")
        if counts["instrument.packs"] != counts["analysis.packs"]:
            problems.append("instrument.packs != analysis.packs")
    for key in layers.expected_nonzero(workload):
        if counts[key] == 0:
            problems.append(f"{key} is 0 on {workload}")
    if workload == "stream":
        for key in layers.STREAM_ZEROS:
            if counts[key] != 0:
                problems.append(f"{key} is {counts[key]} on stream, predicted 0")
    for entry, workloads in expect.items():
        if workload in workloads and first["calls"][entry] == 0:
            problems.append(f"wrapper {entry} never fired on {workload}")
    return problems


# -- all workloads ------------------------------------------------------------------------


def all_workloads(args: argparse.Namespace) -> int:
    """Each workload in its own process; a combined table and result line."""
    metrics, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {workload}: fail_frac {result['failed'] / result['attempted']:.4f}")
        for name, metric in result["metrics"].items():
            print(f"   {name} = {metric['value']} {metric['unit']}")
            metrics[f"{workload}.{name}"] = (metric["value"], metric["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        parser.exit(2, f"perfbench: no repro sources at {SRC}\n")
    if args.write_references:
        write_references()
        return 0
    if args.probe is not None:
        probe = probe_setup if args.probe == "setup" else probe_pass
        print(json.dumps(probe(args)))
        return 0
    if args.workload == "all":
        return all_workloads(args)
    return traced_run(args) if args.trace else end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
