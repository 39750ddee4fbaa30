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

from repro.apps.nas import SP
from repro.bench.harness import SMALL_PACKS, LaneResult, by_scale
from repro.core.session import CouplingSession
from repro.network.machine import TERA100
from repro.obs import METRICS_SCHEMA, FileSink
from repro.telemetry import Telemetry
from repro.telemetry.popmetrics import PopConfig

#: writer/reader ratios swept (paper Figure 14's axis)
RATIOS = (4.0, 2.0, 1.0)

#: metric window in virtual seconds (≈ 100 windows over the small workload)
WINDOW_S = 0.01

#: the first configuration's POP records, as a side file under ``--json``
ARTIFACT_NAME = "BENCH_metrics.ndjson"

#: table column -> cell format
COLUMNS = {
    "ratio": "g", "readers": "", "windows": "", "phases": "", "pe": ".6f",
    "load_balance": ".6f", "comm_eff": ".6f", "ser_eff": ".6f",
    "instr_share": ".6f", "walltime_s": ".6f",
}


def metrics_timeline(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> LaneResult:
    """Sweep analyzer ratios with the online POP-metrics engine attached."""
    kernel = SP(by_scale(scale, small=16, paper=64), "C", iterations=3)
    lane = LaneResult(
        f"Time-resolved POP efficiency ({TERA100.name}, scale={scale})", COLUMNS
    )
    for index, ratio in enumerate(RATIOS):
        session = CouplingSession(
            machine=TERA100,
            seed=seed,
            instrumentation=SMALL_PACKS,
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
            lane.side_files[ARTIFACT_NAME] = ndjson.getvalue()
        summary = run.efficiency
        eor = summary["end_of_run"]
        lane.add(
            ratio=ratio,
            readers=readers,
            windows=summary["windows"],
            phases=len(summary["phases"]),
            pe=eor["parallel_efficiency"],
            load_balance=eor["load_balance"],
            comm_eff=eor["communication_efficiency"],
            ser_eff=eor["serialization_efficiency"],
            instr_share=eor["instrumentation_share"],
            walltime_s=run.app(name).walltime,
        )
    return lane
