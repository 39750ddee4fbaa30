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

from dataclasses import dataclass, field

from repro.apps.nas import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import TERA100
from repro.telemetry import Telemetry
from repro.telemetry.provenance import STAGES
from repro.util.tables import Table


@dataclass
class FlowPoint:
    """One pipeline stage of one coupled-workload configuration."""

    ratio: float
    writers: int
    readers: int
    stage: str
    flows: int
    p50_s: float
    p95_s: float
    mean_s: float
    total_s: float
    #: |sum(stage totals) - end-to-end total| / end-to-end total for the
    #: row's configuration (identical across its stage rows)
    consistency: float


@dataclass
class FlowResult:
    """Writer/reader-ratio sweep of per-stage latency attribution."""

    machine: str
    scale: str
    seed: int
    points: list[FlowPoint] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            [
                "ratio", "writers", "readers", "stage", "flows",
                "p50_us", "p95_us", "mean_us", "total_ms", "consistency",
            ],
            title=f"Pipeline latency attribution ({self.machine}, scale={self.scale})",
        )
        for p in self.points:
            t.add_row(
                f"{p.ratio:g}", p.writers, p.readers, p.stage, p.flows,
                f"{p.p50_s * 1e6:.3f}", f"{p.p95_s * 1e6:.3f}",
                f"{p.mean_s * 1e6:.3f}", f"{p.total_s * 1e3:.4f}",
                f"{p.consistency:.2e}",
            )
        return t


def _workload(scale: str):
    """(kernel, ratio grid) mirroring the fig14 writer/reader sweep."""
    if scale == "paper":
        return SP(256, "C", iterations=3), (4.0, 16.0, 64.0)
    if scale == "small":
        return SP(16, "C", iterations=3), (2.0, 4.0, 8.0)
    raise ConfigError(f"unknown scale {scale!r}")


def flow_attribution(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> FlowResult:
    """Sweep the writer/reader ratio and attribute per-stage latency.

    Each configuration runs with full flow tracing; undersized analyzers
    surface as growing ``stall`` and ``dwell`` shares — backpressure made
    visible stage by stage.
    """
    kernel, ratios = _workload(scale)
    result = FlowResult(machine=TERA100.name, scale=scale, seed=seed)
    # Small packs so every writer flushes a stream of them: latency
    # attribution needs per-pack samples, not one tail flush per rank.
    cost = InstrumentationCost(block_size=4096, na_buffers=2)
    for ratio in ratios:
        session = CouplingSession(
            machine=TERA100, seed=seed, instrumentation=cost, telemetry=telemetry
        )
        session.add_application(kernel)
        readers = session.set_analyzer(ratio=ratio)
        session.enable_provenance()
        run = session.run()
        flows = run.flows
        end = flows["end_to_end"]
        stage_sum = sum(s["total_s"] for s in flows["stages"].values())
        consistency = (
            abs(stage_sum - end["total_s"]) / end["total_s"]
            if end["total_s"] > 0
            else 0.0
        )
        for stage in STAGES:
            s = flows["stages"][stage]
            result.points.append(
                FlowPoint(
                    ratio=ratio,
                    writers=kernel.nprocs,
                    readers=readers,
                    stage=stage,
                    flows=int(s["count"]),
                    p50_s=s["p50_s"],
                    p95_s=s["p95_s"],
                    mean_s=s["mean_s"],
                    total_s=s["total_s"],
                    consistency=consistency,
                )
            )
        result.points.append(
            FlowPoint(
                ratio=ratio,
                writers=kernel.nprocs,
                readers=readers,
                stage="end_to_end",
                flows=int(end["count"]),
                p50_s=end["p50_s"],
                p95_s=end["p95_s"],
                mean_s=end["mean_s"],
                total_s=end["total_s"],
                consistency=consistency,
            )
        )
    return result
