"""Command-line driver: regenerate any paper figure/table from a shell.

Usage::

    python -m repro.bench fig14 [--scale small|paper] [--seed N]
    python -m repro.bench fig15
    python -m repro.bench fig16
    python -m repro.bench fig17
    python -m repro.bench fig18
    python -m repro.bench bi
    python -m repro.bench trace-sizes
    python -m repro.bench fs-comparison
    python -m repro.bench chaos [--chaos PLAN]
    python -m repro.bench codec
    python -m repro.bench flow
    python -m repro.bench metrics
    python -m repro.bench obs
    python -m repro.bench steering
    python -m repro.bench all

Every experiment runs through one path: its function is called with
``scale``, ``seed`` and ``telemetry`` plus the sub-command's own flags,
and returns a result whose ``table()`` is printed and whose
``side_files`` are written; the extension lanes all return one
:class:`~repro.bench.harness.LaneResult`.  The common flags
(``--scale/--seed/--csv/--json/--telemetry/--outdir/--baseline``) are
defined once on a shared argparse parent; experiment-specific flags
(``chaos --chaos PLAN``) live on their own sub-command and reach the
function as keywords.

With ``--json`` each experiment additionally writes ``BENCH_<name>.json``
(table rows + metadata + a host-environment header) and the result's side
files (``BENCH_metrics.ndjson``, the POP window/phase records;
``BENCH_obs.ndjson``, the unified bus stream; ``steering_decisions.json``,
the adaptive run's decision log); adding ``--telemetry`` runs the
measurement pipeline itself instrumented, embeds the self-telemetry
summary in the JSON, and dumps ``BENCH_<name>.trace.json`` — a Chrome
trace-event file loadable in Perfetto or ``chrome://tracing``.  For a
host profile of the harness itself, run it under the standard profiler:
``python -m cProfile -o BENCH_fig14.pstats -m repro.bench fig14``.

``--baseline BENCH_ref.json`` is the regression gate: after the run, the
fresh rows must equal the committed artefact's cell for cell (see
:mod:`repro.bench.compare`); every differing cell is printed and the
command exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import (
    bi_bandwidth_table,
    chaos_resilience,
    codec_reduction,
    fig14_stream_throughput,
    flow_attribution,
    fig15_overhead,
    fig16_tool_comparison,
    fig17_topology,
    fig18_density,
    fs_comparison_table,
    metrics_timeline,
    obs_roundtrip,
    steering_adaptation,
    trace_size_table,
)
from repro.bench.compare import compare_bench, load_bench_json
from repro.telemetry import Telemetry
from repro.telemetry.hostprof import host_environment, host_now

_DRIVERS = {
    "fig14": fig14_stream_throughput,
    "fig15": fig15_overhead,
    "fig16": fig16_tool_comparison,
    "fig17": fig17_topology,
    "fig18": fig18_density,
    "bi": bi_bandwidth_table,
    "trace-sizes": trace_size_table,
    "fs-comparison": fs_comparison_table,
    "chaos": chaos_resilience,
    "codec": codec_reduction,
    "flow": flow_attribution,
    "metrics": metrics_timeline,
    "obs": obs_roundtrip,
    "steering": steering_adaptation,
}

#: flags only one sub-command takes; each ``dest`` is an experiment keyword
_LANE_FLAGS = {
    "chaos": [
        (
            "--chaos",
            dict(
                dest="plan",
                metavar="PLAN",
                help="fault plan: a canned name (crash1, degrade, corrupt, "
                "drop, stall, mixed) or a JSON plan file; default: sweep "
                "every canned plan",
            ),
        )
    ],
}


def _common_parser() -> argparse.ArgumentParser:
    """The shared flag set every experiment sub-command inherits."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale",
        choices=("small", "paper"),
        default="small",
        help="parameter grid: reduced (default) or the paper's own",
    )
    common.add_argument("--seed", type=int, default=0, help="experiment seed")
    common.add_argument(
        "--csv", action="store_true", help="emit CSV instead of an aligned table"
    )
    common.add_argument(
        "--json",
        action="store_true",
        help="also write BENCH_<name>.json with rows and metadata",
    )
    common.add_argument(
        "--telemetry",
        action="store_true",
        help="instrument the measurement pipeline itself; dumps a Chrome "
        "trace next to the JSON (implies --json)",
    )
    common.add_argument(
        "--outdir",
        default=".",
        help="directory for --json/--telemetry artefacts (default: cwd)",
    )
    common.add_argument(
        "--baseline",
        metavar="BENCH_ref.json",
        help="after running, require the fresh rows to equal this "
        "artefact's cell for cell; exit 1 on any difference (single "
        "experiment only)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures and tables.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    common = _common_parser()
    for name in sorted(_DRIVERS):
        experiment = sub.add_parser(
            name, parents=[common], help=f"run the {name} sweep"
        )
        experiment.set_defaults(names=[name])
        for flag, options in _LANE_FLAGS.get(name, ()):
            experiment.add_argument(flag, **options)
    every = sub.add_parser("all", parents=[common], help="run every experiment")
    every.set_defaults(names=sorted(_DRIVERS))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.telemetry:
        args.json = True
    if args.baseline and len(args.names) > 1:
        parser.error("--baseline gates a single experiment, not 'all'")

    outdir = Path(args.outdir)
    if args.json:
        outdir.mkdir(parents=True, exist_ok=True)

    kwargs = {
        options["dest"]: getattr(args, options["dest"])
        for _flag, options in _LANE_FLAGS.get(args.experiment, ())
    }
    for name in args.names:
        driver = _DRIVERS[name]
        telemetry = Telemetry() if args.telemetry else None
        stem = name.replace("-", "_")
        t0 = host_now()
        result = driver(scale=args.scale, seed=args.seed, telemetry=telemetry, **kwargs)
        elapsed = host_now() - t0
        table = result.table()
        print(table.to_csv() if args.csv else table.render())
        print(f"[{name}: regenerated in {elapsed:.1f}s at scale={args.scale}]")
        payload = {
            "experiment": name,
            "scale": args.scale,
            "seed": args.seed,
            "elapsed_s": elapsed,
            "host": host_environment(),
            "columns": table.columns,
            "rows": table.rows,
        }
        if args.json:
            if telemetry is not None:
                payload["telemetry"] = telemetry.summary()
                trace_path = outdir / f"BENCH_{stem}.trace.json"
                telemetry.write_chrome_trace(trace_path)
                print(f"[{name}: Chrome trace -> {trace_path}]")
            for filename, text in getattr(result, "side_files", {}).items():
                side_path = outdir / filename
                side_path.write_text(text)
                print(f"[{name}: {filename} -> {side_path}]")
            json_path = outdir / f"BENCH_{stem}.json"
            json_path.write_text(json.dumps(payload, indent=2, default=str))
            print(f"[{name}: JSON -> {json_path}]")
        if args.baseline:
            # Round-trip so in-memory cells compare as they read on disk.
            comparison = compare_bench(
                load_bench_json(args.baseline),
                json.loads(json.dumps(payload, default=str)),
            )
            print(comparison.render())
            if not comparison.ok:
                return 1
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
