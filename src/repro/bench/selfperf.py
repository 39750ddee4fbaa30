"""Self-performance bench: what the *simulator itself* costs, attributed.

Every other bench lane reports virtual-time results — what the simulated
system would do.  This lane turns the host-time observability plane
(:mod:`repro.telemetry.hostprof`) on itself and reports what the
pure-Python simulator spends per wall-clock second, hot path by hot path:

* ``kernel_events_per_s`` — simulated events dispatched per host second
  inside the kernel drain loop;
* ``stream_mb_per_s`` — modelled bytes moved through the VMPIStream
  write/transit/read copy paths per host second of straight-line Python
  (yield-aware: virtual-time waits are not charged);
* ``codec_mb_per_s`` — content bytes through the codec chain encode and
  decode per host second (0 on the identity row: no chain runs);
* ``frame_mb_per_s`` — frame bytes through EVF2 parse and emit per host
  second.

One row per reduction chain, so ``BENCH_selfperf.json`` doubles as the
hotspot-attribution document: which layer bounds a figure sweep, and how
each chain shifts the balance.  Next to the throughputs each row carries
four ``*_allocs`` columns — timing-free tracemalloc probes counting the
allocation blocks each hot lane pins per fixed unit of work (pending
events, packed records, parsed frames) — so an alloc-per-event
regression is caught even on a noisy runner.  Deterministic columns (events, packs)
gate tight in CI; throughput columns gate with generous per-metric
tolerances because CI runners are slower than dev boxes — the *ratio*
gates below are the real self-checks:

* **bit-identity** — the profiler is observation-only: a run with the
  profiler active must produce exactly the virtual walltime, event count
  and pack count of an unprofiled run;
* **overhead** — best-of-N wall time with the profiler on must stay
  within ``overhead_budget`` (default 5%) of best-of-N with it off.

Both gates raise :class:`~repro.errors.ConfigError` on violation, so a
plain ``python -m repro.bench selfperf`` run is itself the test.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.codec.frame as _frame_mod
import repro.codec.stages as _stages_mod
import repro.instrument.interceptor as _interceptor_mod
import repro.instrument.packer as _packer_mod
import repro.simt.kernel as _kernel_mod
import repro.simt.primitives as _primitives_mod
import repro.simt.process as _process_mod
import repro.vmpi.stream as _stream_mod
from repro.apps.nas import SP
from repro.bench.harness import run_fingerprint
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import MachineSpec, TERA100
from repro.telemetry import Telemetry, hostprof
from repro.telemetry.hostprof import HostProfiler, host_now

#: chain sweep: identity baseline plus the two composed reductions the
#: codec lane shows at the extremes of the CPU/volume trade-off
CHAINS = ("", "delta+dict", "delta+dict+zlib")

#: timers summed into the stream copy-path throughput
_STREAM_TIMERS = ("stream.write", "stream.transit", "stream.read")
#: timers summed into the codec-chain throughput
_CODEC_TIMERS = ("codec.encode", "codec.decode")
#: timers summed into the EVF2 framing throughput
_FRAME_TIMERS = ("frame.parse", "frame.emit")

#: source files attributed to each hot-path lane by the allocation probes
_ALLOC_LANES = {
    "kernel_allocs": (
        _kernel_mod.__file__, _process_mod.__file__, _primitives_mod.__file__,
    ),
    "stream_allocs": (
        _stream_mod.__file__, _packer_mod.__file__, _interceptor_mod.__file__,
    ),
    "codec_allocs": (_stages_mod.__file__,),
    "frame_allocs": (_frame_mod.__file__,),
}


@dataclass
class SelfPerfPoint:
    """Host-side throughput of one profiled coupled-workload run."""

    chain: str
    events: int
    packs: int
    kernel_events_per_s: float
    stream_mb_per_s: float
    codec_mb_per_s: float
    frame_mb_per_s: float
    #: per-lane allocation blocks retained by the deterministic probes
    #: (see _lane_alloc_counts); no timing involved, so they gate tight
    kernel_allocs: int
    stream_allocs: int
    codec_allocs: int
    frame_allocs: int
    #: host wall seconds for the profiled run (never gated: pure noise)
    elapsed_s: float


@dataclass
class SelfPerfResult:
    """Per-chain host throughput plus the self-gate outcomes."""

    machine: str
    scale: str
    seed: int
    host: dict[str, Any] = field(default_factory=dict)
    points: list[SelfPerfPoint] = field(default_factory=list)
    #: measured profiler overhead (best-of-N on/off wall-time ratio - 1)
    overhead_ratio: float = 0.0
    overhead_budget: float = 0.0
    #: summary of the last profiled run, for trace export / inspection
    profile: dict[str, Any] = field(default_factory=dict)

    def table(self):
        from repro.util.tables import Table

        t = Table(
            [
                "chain", "events", "packs", "kernel_events_per_s",
                "stream_mb_per_s", "codec_mb_per_s", "frame_mb_per_s",
                "kernel_allocs", "stream_allocs", "codec_allocs",
                "frame_allocs", "elapsed_s",
            ],
            title=(
                f"Simulator self-performance ({self.machine}, "
                f"scale={self.scale}, profiler overhead "
                f"{self.overhead_ratio:+.2%} of {self.overhead_budget:.0%} budget)"
            ),
        )
        for p in self.points:
            t.add_row(
                p.chain or "identity", p.events, p.packs,
                f"{p.kernel_events_per_s:.0f}", f"{p.stream_mb_per_s:.3f}",
                f"{p.codec_mb_per_s:.3f}", f"{p.frame_mb_per_s:.3f}",
                p.kernel_allocs, p.stream_allocs, p.codec_allocs,
                p.frame_allocs, f"{p.elapsed_s:.4f}",
            )
        return t


def _workload(scale: str):
    if scale == "paper":
        return SP(64, "C", iterations=3)
    if scale == "small":
        return SP(16, "C", iterations=3)
    raise ConfigError(f"unknown scale {scale!r}")


def _run_once(
    chain: str,
    scale: str,
    machine: MachineSpec,
    seed: int,
    telemetry: Telemetry | None = None,
    profiler: HostProfiler | None = None,
):
    """One coupled run; returns ``(app_result, analyzer_stats, wall_s)``."""
    kernel = _workload(scale)
    # Small packs, as in the codec lane: the frame/codec/stream timers need
    # a stream of packs per writer, not one tail flush.
    cost = InstrumentationCost(block_size=4096, na_buffers=2)
    session = CouplingSession(
        machine=machine, seed=seed, instrumentation=cost, telemetry=telemetry
    )
    name = session.add_application(kernel)
    session.set_analyzer(ratio=4.0)
    if chain:
        session.set_reduction(chain)
    t0 = host_now()
    if profiler is not None:
        with hostprof.profiled(profiler), profiler.span(
            "selfperf.run", chain=chain or "identity", scale=scale
        ):
            run = session.run()
    else:
        run = session.run()
    wall = host_now() - t0
    return run.app(name), run.analyzer_stats, wall


def _throughput(profiler: HostProfiler, names: tuple[str, ...]) -> float:
    """Aggregate MB/s across a group of timers (0 when none fired)."""
    total_s = sum(profiler.timers[n].total_s for n in names if n in profiler.timers)
    nbytes = sum(profiler.timers[n].nbytes for n in names if n in profiler.timers)
    return nbytes / total_s / 1e6 if total_s > 0 else 0.0


# -- allocation probes ------------------------------------------------------------
#
# Throughput columns are host-speed-dependent and gate loosely; the alloc
# columns are their timing-free complement.  Each probe drives a fixed
# working set through one hot layer and *holds it live* across the closing
# tracemalloc snapshot, so the count is the number of allocation blocks
# the layer pins per unit of work — exactly the figure the slotted-event /
# preallocated-buffer / zero-copy work drives down, and deterministic for
# a given interpreter.

_PROBE_EVENTS = 256  # pending events held by the kernel probe
_PROBE_RECORDS = 64  # records packed by the stream probe
_PROBE_FRAMES = 32  # frames parsed and held by the frame probe


def _probe_kernel(hold: list) -> None:
    kernel = _kernel_mod.Kernel()
    for i in range(_PROBE_EVENTS):
        kernel.timeout(float(i))
    hold.append(kernel)


def _probe_stream(chain: str, hold: list) -> None:
    from repro.codec.stages import build_chain
    from repro.mpi.pmpi import CallRecord

    builder = _packer_mod.EventPackBuilder(
        app_id=0,
        rank=0,
        capacity_bytes=16 + 40 * _PROBE_RECORDS,
        chain=build_chain(chain) if chain else None,
    )
    record = CallRecord("MPI_Send", 0.0, 1e-6, 0, 0, 4, 1, 7, 1024)
    for _ in range(_PROBE_RECORDS):
        builder.add(record)
    hold.append(builder)


def _probe_codec(chain: str, hold: list) -> None:
    if not chain:
        return  # identity: no chain runs, no stage allocations
    from repro.codec.stages import build_chain

    encoder = build_chain(chain)
    records = bytes(40 * _PROBE_RECORDS)
    hold.append(encoder.encode(records, now=0.0))


def _probe_frame(hold: list) -> None:
    blob = _frame_mod.build_frame(
        0, 0, _PROBE_RECORDS, bytes(40 * _PROBE_RECORDS), codec="delta"
    )
    hold.append([_frame_mod.parse_frame(blob) for _ in range(_PROBE_FRAMES)])
    hold.append(blob)


def _alloc_blocks(files: tuple[str, ...], fn) -> int:
    """Live allocation blocks attributable to ``files`` after ``fn(hold)``."""
    # Untracked warm-up pass: first-call caches (struct tables, codec
    # registries, interned codec specs) allocate once per process and
    # would otherwise show up only in cold runs, making the counts
    # depend on what ran before the probe.
    warm: list = []
    fn(warm)
    warm.clear()
    hold: list = []
    gc.collect()
    tracemalloc.start(1)
    try:
        fn(hold)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(True, fname) for fname in files]
    )
    count = sum(stat.count for stat in snapshot.statistics("filename"))
    hold.clear()
    return count


def _lane_alloc_counts(chain: str) -> dict[str, int]:
    """Tracemalloc block deltas of the four hot-path lanes for one chain."""
    return {
        "kernel_allocs": _alloc_blocks(_ALLOC_LANES["kernel_allocs"], _probe_kernel),
        "stream_allocs": _alloc_blocks(
            _ALLOC_LANES["stream_allocs"], lambda hold: _probe_stream(chain, hold)
        ),
        "codec_allocs": _alloc_blocks(
            _ALLOC_LANES["codec_allocs"], lambda hold: _probe_codec(chain, hold)
        ),
        "frame_allocs": _alloc_blocks(_ALLOC_LANES["frame_allocs"], _probe_frame),
    }


def selfperf_sweep(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
    chains: tuple[str, ...] = CHAINS,
    overhead_budget: float = 0.05,
    repeats: int = 5,
    trace_dir: str | None = None,
) -> SelfPerfResult:
    """Profile the simulator across reduction chains; self-gate the profiler.

    The identity chain anchors both gates: its unprofiled run provides the
    bit-identity reference and the overhead baseline.  ``trace_dir`` dumps
    the last profiled run as ``BENCH_selfperf.hostprof.trace.json`` (Chrome
    trace) and ``BENCH_selfperf.hostprof.jsonl``.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    result = SelfPerfResult(
        machine=machine.name, scale=scale, seed=seed,
        host=hostprof.host_environment(), overhead_budget=overhead_budget,
    )

    # -- gate 1: bit-identity, profiler off vs on ------------------------------
    ref_app, ref_stats, _ = _run_once(chains[0], scale, machine, seed, telemetry)
    probe = HostProfiler()
    app, stats, _ = _run_once(
        chains[0], scale, machine, seed, telemetry, profiler=probe
    )
    if run_fingerprint(app, stats) != run_fingerprint(ref_app, ref_stats):
        raise ConfigError(
            "host profiler perturbed the simulation: "
            f"{run_fingerprint(ref_app, ref_stats)} -> {run_fingerprint(app, stats)}"
        )

    # -- gate 2: overhead ratio, best-of-N paired runs -------------------------
    # The runs are ~100ms and scheduler noise on a loaded box swings single
    # runs by 10%+, so each off run is paired with a temporally adjacent on
    # run and the gate takes the *minimum pair ratio*: a false positive
    # needs every one of the ``repeats`` pairs perturbed in the same
    # direction, while a real regression shows in all of them.
    ratios = []
    for _ in range(repeats):
        off_s = _run_once(chains[0], scale, machine, seed, telemetry)[2]
        on_s = _run_once(
            chains[0], scale, machine, seed, telemetry, profiler=HostProfiler()
        )[2]
        ratios.append(on_s / off_s - 1.0)
    result.overhead_ratio = min(ratios)
    if result.overhead_ratio > overhead_budget:
        raise ConfigError(
            f"host profiler overhead {result.overhead_ratio:+.2%} exceeds the "
            f"{overhead_budget:.0%} budget (pair ratios: "
            + ", ".join(f"{r:+.2%}" for r in ratios) + ")"
        )

    # -- the sweep: one profiled run per chain ---------------------------------
    last_profiler: HostProfiler | None = None
    for chain in chains:
        profiler = HostProfiler()
        app, stats, _ = _run_once(
            chain, scale, machine, seed, telemetry, profiler=profiler
        )
        dispatch = profiler.timers.get("kernel.dispatch")
        if dispatch is None or dispatch.items <= 0:
            raise ConfigError(
                f"chain {chain!r}: kernel dispatch timer never fired "
                "(hostprof wiring broken?)"
            )
        allocs = _lane_alloc_counts(chain)
        result.points.append(
            SelfPerfPoint(
                chain=chain,
                events=app.events,
                packs=app.packs,
                kernel_events_per_s=dispatch.items_per_s,
                stream_mb_per_s=_throughput(profiler, _STREAM_TIMERS),
                codec_mb_per_s=_throughput(profiler, _CODEC_TIMERS),
                frame_mb_per_s=_throughput(profiler, _FRAME_TIMERS),
                kernel_allocs=allocs["kernel_allocs"],
                stream_allocs=allocs["stream_allocs"],
                codec_allocs=allocs["codec_allocs"],
                frame_allocs=allocs["frame_allocs"],
                elapsed_s=profiler.elapsed_s,
            )
        )
        last_profiler = profiler

    result.profile = last_profiler.summary()
    if trace_dir is not None:
        outdir = Path(trace_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        last_profiler.write_chrome_trace(
            str(outdir / "BENCH_selfperf.hostprof.trace.json")
        )
        last_profiler.write_jsonl(str(outdir / "BENCH_selfperf.hostprof.jsonl"))
    return result
