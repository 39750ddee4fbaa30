"""Flow bench: per-stage latency attribution of the streaming pipeline.

Runs the fig14-style coupled workload (an instrumented SP kernel streaming
into the analyzer partition) with provenance tracing on, sweeping the
writer/reader ratio, and reports where an event pack's end-to-end latency
goes: seal, stall (backpressure), transit, receive-buffer dwell, dispatch
and analysis.  One table row per (ratio, stage) plus an ``end_to_end`` row
per ratio, so the ``BENCH_flow.json`` artefact *is* the stage-attribution
document — no side-channel files.

Because the stages telescope, each configuration's stage ``total_s`` values
sum to its end-to-end total; the ``consistency`` column reports the
fractional error, the committed baseline pins it and
``tests/test_provenance.py`` asserts the telescoping.
"""

from __future__ import annotations

from repro.apps.nas import SP
from repro.bench.harness import SMALL_PACKS, LaneResult, by_scale
from repro.core.session import CouplingSession
from repro.network.machine import TERA100
from repro.telemetry import Telemetry
from repro.telemetry.provenance import STAGES

#: table column -> cell format; ``consistency`` is |sum(stage totals) -
#: end-to-end total| / end-to-end total of the row's configuration
COLUMNS = {
    "ratio": "g", "writers": "", "readers": "", "stage": "", "flows": "",
    "p50_us": ".3f", "p95_us": ".3f", "mean_us": ".3f", "total_ms": ".4f",
    "consistency": ".2e",
}


def flow_attribution(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> LaneResult:
    """Sweep the writer/reader ratio and attribute per-stage latency.

    Each configuration runs with full flow tracing; undersized analyzers
    surface as growing ``stall`` and ``dwell`` shares — backpressure made
    visible stage by stage.
    """
    # (kernel, ratio grid) mirroring the fig14 writer/reader sweep.
    kernel, ratios = by_scale(
        scale,
        small=(SP(16, "C", iterations=3), (2.0, 4.0, 8.0)),
        paper=(SP(256, "C", iterations=3), (4.0, 16.0, 64.0)),
    )
    lane = LaneResult(
        f"Pipeline latency attribution ({TERA100.name}, scale={scale})", COLUMNS
    )
    for ratio in ratios:
        session = CouplingSession(
            machine=TERA100, seed=seed, instrumentation=SMALL_PACKS,
            telemetry=telemetry,
        )
        session.add_application(kernel)
        readers = session.set_analyzer(ratio=ratio)
        session.enable_provenance()
        flows = session.run().flows
        end = flows["end_to_end"]
        stage_sum = sum(s["total_s"] for s in flows["stages"].values())
        consistency = (
            abs(stage_sum - end["total_s"]) / end["total_s"]
            if end["total_s"] > 0
            else 0.0
        )
        rows = [(stage, flows["stages"][stage]) for stage in STAGES]
        for stage, s in rows + [("end_to_end", end)]:
            lane.add(
                ratio=ratio,
                writers=kernel.nprocs,
                readers=readers,
                stage=stage,
                flows=int(s["count"]),
                p50_us=s["p50_s"] * 1e6,
                p95_us=s["p95_s"] * 1e6,
                mean_us=s["mean_s"] * 1e6,
                total_ms=s["total_s"] * 1e3,
                consistency=consistency,
            )
    return lane
