"""Metrics bench: time-resolved POP efficiency over the coupled workload.

Runs the fig14-style coupled workload (an instrumented SP kernel streaming
into the analyzer partition) once per writer/reader ratio with the online
:class:`~repro.telemetry.popmetrics.PopMetricsEngine` attached, and
reports the windowed POP metrics per configuration: parallel efficiency,
load balance, communication efficiency, serialization efficiency and the
instrumentation share, plus the window/phase counts the change-point
detector produced.  One row per ratio, so ``BENCH_metrics.json`` *is* the
efficiency-versus-analyzer-sizing document.

The committed baseline pins every cell; the POP identity and the
window/phase telescoping are tier-1 tests (``tests/test_pop_metrics.py``),
and the observer bar (the engine leaves the run bit-identical) is
``tests/test_observer_invariance.py``.  The first configuration's
``repro.pop-metrics/1`` records come off a bus file sink as the
``BENCH_metrics.ndjson`` side file.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from repro.apps.nas import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import TERA100
from repro.obs import METRICS_SCHEMA, FileSink
from repro.telemetry import Telemetry
from repro.telemetry.popmetrics import PopConfig
from repro.util.tables import Table

#: writer/reader ratios swept (paper Figure 14's axis)
RATIOS = (4.0, 2.0, 1.0)

#: metric window in virtual seconds (≈ 100 windows over the small workload)
WINDOW_S = 0.01

#: the first configuration's POP records, as a side file under ``--json``
ARTIFACT_NAME = "BENCH_metrics.ndjson"


@dataclass
class MetricsPoint:
    """One analyzer ratio on the coupled workload."""

    ratio: float
    readers: int
    windows: int
    phases: int
    pe: float
    load_balance: float
    comm_eff: float
    ser_eff: float
    instr_share: float
    walltime_s: float


@dataclass
class MetricsResult:
    """POP-efficiency sweep over analyzer sizing."""

    machine: str
    scale: str
    seed: int
    points: list[MetricsPoint] = field(default_factory=list)
    #: side file name -> text, written next to the JSON by ``--json``
    side_files: dict[str, str] = field(default_factory=dict, repr=False)

    def table(self) -> Table:
        t = Table(
            [
                "ratio", "readers", "windows", "phases", "pe",
                "load_balance", "comm_eff", "ser_eff", "instr_share",
                "walltime_s",
            ],
            title=f"Time-resolved POP efficiency ({self.machine}, scale={self.scale})",
        )
        for p in self.points:
            t.add_row(
                f"{p.ratio:g}", p.readers, p.windows, p.phases,
                f"{p.pe:.6f}", f"{p.load_balance:.6f}", f"{p.comm_eff:.6f}",
                f"{p.ser_eff:.6f}", f"{p.instr_share:.6f}",
                f"{p.walltime_s:.6f}",
            )
        return t


def _workload(scale: str):
    if scale == "paper":
        return SP(64, "C", iterations=3)
    if scale == "small":
        return SP(16, "C", iterations=3)
    raise ConfigError(f"unknown scale {scale!r}")


def metrics_timeline(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> MetricsResult:
    """Sweep analyzer ratios with the online POP-metrics engine attached."""
    kernel = _workload(scale)
    result = MetricsResult(machine=TERA100.name, scale=scale, seed=seed)
    # Small packs so every writer streams continuously (as in the codec
    # bench): backpressure and analyzer load must be visible per window.
    cost = InstrumentationCost(block_size=4096, na_buffers=2)
    for index, ratio in enumerate(RATIOS):
        session = CouplingSession(
            machine=TERA100,
            seed=seed,
            instrumentation=cost,
            telemetry=telemetry if telemetry is not None else Telemetry(),
        )
        name = session.add_application(kernel)
        readers = session.set_analyzer(ratio=ratio)
        session.enable_pop_metrics(PopConfig(window=WINDOW_S))
        if index == 0:
            ndjson = io.StringIO()
            session.enable_observability().add_sink(
                FileSink(ndjson), schemas=[METRICS_SCHEMA]
            )
        run = session.run()
        if index == 0:
            result.side_files[ARTIFACT_NAME] = ndjson.getvalue()
        app = run.app(name)
        summary = run.efficiency
        eor = summary["end_of_run"]
        result.points.append(
            MetricsPoint(
                ratio=ratio,
                readers=readers,
                windows=summary["windows"],
                phases=len(summary["phases"]),
                pe=eor["parallel_efficiency"],
                load_balance=eor["load_balance"],
                comm_eff=eor["communication_efficiency"],
                ser_eff=eor["serialization_efficiency"],
                instr_share=eor["instrumentation_share"],
                walltime_s=app.walltime,
            )
        )
    return result
