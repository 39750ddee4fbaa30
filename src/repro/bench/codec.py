"""Codec bench: wire-volume reduction versus codec CPU, chain by chain.

Runs the fig14-style coupled workload (an instrumented SP kernel
streaming into the analyzer partition) once per reduction chain and
reports what each stage composition buys: physical wire bytes versus
modelled content bytes, the per-pack compression ratio, the virtual CPU
charged for encoding and decoding, and the end-to-end slowdown against
the identity chain.  One table row per chain, so ``BENCH_codec.json``
*is* the reduction trade-off document.

The committed baseline pins every cell, which includes each chain's
``events`` (lossless chains deliver the identity chain's count) and
``ratio`` (compressing chains compress).  On this lane's workload,
``tests/test_codec_session.py`` asserts for every chain that no pack is
rejected, no event is lost, and writer-side and analyzer-side wire bytes
agree.
"""

from __future__ import annotations

from repro.apps.nas import SP
from repro.bench.harness import SMALL_PACKS, LaneResult, by_scale
from repro.core.session import CouplingSession
from repro.network.machine import TERA100
from repro.telemetry import Telemetry

#: chain sweep: identity baseline, then increasingly composed reductions
CHAINS = ("", "delta", "delta+dict", "delta+dict+zlib")

#: table column -> cell format; ``ratio`` is physical wire bytes per
#: modelled content byte (< 1 compresses), ``slowdown`` the app walltime
#: relative to the identity chain (1.0 = free)
COLUMNS = {
    "chain": "", "events": "", "packs": "", "content_kb": ".2f",
    "wire_kb": ".2f", "ratio": ".4f", "encode_us": ".2f", "decode_us": ".2f",
    "walltime_s": ".6f", "slowdown": ".6f",
}


def codec_reduction(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> LaneResult:
    """Sweep reduction chains over the coupled workload.

    The identity chain runs first and anchors the slowdown column.
    """
    kernel = SP(by_scale(scale, small=16, paper=64), "C", iterations=3)
    lane = LaneResult(
        f"Event reduction sweep ({TERA100.name}, scale={scale})", COLUMNS
    )
    base_walltime = None
    for chain in CHAINS:
        session = CouplingSession(
            machine=TERA100, seed=seed, instrumentation=SMALL_PACKS,
            telemetry=telemetry,
        )
        name = session.add_application(kernel)
        session.set_analyzer(ratio=4.0)
        if chain:
            session.set_reduction(chain)
        run = session.run()
        app = run.app(name)
        stats = run.analyzer_stats
        if chain:
            red = run.reduction
            bytes_content, bytes_wire = red["bytes_content"], red["bytes_wire"]
            ratio = red["ratio"]
            encode_cpu, decode_cpu = red["encode_cpu_s"], red["decode_cpu_s"]
        else:
            # Aggregated over every analyzer rank: modelled content bytes
            # ingested and the physical frame bytes that carried them.
            bytes_content = stats["bytes"]
            bytes_wire = stats["bytes_wire"]
            ratio = bytes_wire / bytes_content if bytes_content else 0.0
            encode_cpu = decode_cpu = 0.0
        if base_walltime is None:
            base_walltime = app.walltime
        lane.add(
            chain=chain or "identity",
            events=app.events,
            packs=app.packs,
            content_kb=bytes_content / 1024,
            wire_kb=bytes_wire / 1024,
            ratio=ratio,
            encode_us=encode_cpu * 1e6,
            decode_us=decode_cpu * 1e6,
            walltime_s=app.walltime,
            slowdown=app.walltime / base_walltime if base_walltime else 0.0,
        )
    return lane
