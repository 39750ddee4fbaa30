"""Obs bench: the unified observability bus, its record counts and its cost.

Runs the fig14-style coupled workload (an instrumented SP kernel streaming
into the analyzer partition) with every observation plane enabled — health
monitor, POP metrics, steering, provenance — and the bus publishing to a
file sink (hub-on).  One row per schema: the bus's record count next to
the plane's own total (telemetry records, POP records the engine emitted,
monitor alerts, steering decisions).  The committed baseline pins both
columns, and ``tests/test_observer_invariance.py`` asserts that the bus
leaves the run bit-identical.

The lane gates one quantity nothing else measures, the bus's **host
overhead**: paired hub-off/hub-on runs, best-of-``REPEATS`` minimum pair
ratio below ``OVERHEAD_BUDGET``, a noise-robust gate.  A violation raises
:class:`~repro.errors.ConfigError`.  The first hub-on run's unified stream
is the ``BENCH_obs.ndjson`` side file — the artefact a release can be
audited from with ``python -m repro.obs query``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.apps.base import AppKernel
from repro.apps.nas import SP
from repro.bench.harness import LaneResult, by_scale
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.network.machine import TERA100
from repro.obs.registry import (
    HEALTH_SCHEMA,
    METRICS_SCHEMA,
    STEERING_SCHEMA,
    TELEMETRY_SCHEMA,
)
from repro.telemetry import Telemetry
from repro.telemetry.hostprof import host_now
from repro.telemetry.export import jsonl_records
from repro.telemetry.popmetrics import PopConfig

#: name of the unified NDJSON side file kept under ``--json``
ARTIFACT_NAME = "BENCH_obs.ndjson"

#: host-time budget of the bus: the best hub-on/hub-off pair ratio - 1
OVERHEAD_BUDGET = 0.05

#: hub-off/hub-on pairs behind the overhead gate
REPEATS = 8

#: table column -> cell format, one row per published schema
COLUMNS = {"schema": "", "kinds": "", "bus_records": "", "plane_records": ""}


def _observed_session(
    kernel: AppKernel, seed: int, unified: Path | None,
    telemetry: Telemetry | None = None,
) -> CouplingSession:
    """One fully observed coupled run; hub on (``unified``) or off."""
    session = CouplingSession(
        machine=TERA100, seed=seed,
        telemetry=telemetry if telemetry is not None else Telemetry(),
    )
    session.add_application(kernel)
    session.set_analyzer(ratio=4.0)
    session.enable_pop_metrics(PopConfig(window=0.5))
    session.enable_steering()  # creates the health monitor too
    session.enable_provenance()
    if unified is not None:
        session.enable_observability(str(unified))
    return session


def _timed_run(session: CouplingSession) -> float:
    t0 = host_now()
    session.run()
    return host_now() - t0


def obs_roundtrip(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> LaneResult:
    """Round-trip every plane through the bus; gate the bus's host cost.

    A ``telemetry`` passed in (the driver's ``--telemetry`` flag) observes
    the first hub-on run, whose records the rows count; the paired
    overhead runs each get a fresh :class:`Telemetry` so hub-on and
    hub-off observe identical, independent pipelines.
    """
    kernel = SP(by_scale(scale, small=16, paper=64), "C", iterations=3)
    lane = LaneResult(
        f"Observability bus round-trip ({TERA100.name}, scale={scale}, seed={seed})",
        COLUMNS,
    )
    with tempfile.TemporaryDirectory(prefix="bench_obs_") as tmp:
        workdir = Path(tmp)

        unified = workdir / "unified.ndjson"
        session = _observed_session(kernel, seed, unified, telemetry)
        pop_records: list[dict] = []
        session.pop_metrics.add_sink(pop_records.append)
        summary = session.run().obs
        plane_totals = {
            TELEMETRY_SCHEMA: len(jsonl_records(session.telemetry)),
            METRICS_SCHEMA: len(pop_records),
            HEALTH_SCHEMA: len(session.monitor.alerts),
            STEERING_SCHEMA: len(session.steering.decisions),
        }
        for schema, plane in sorted(plane_totals.items()):
            counts = summary["schemas"].get(schema, {})
            lane.add(
                schema=schema,
                kinds=len(counts),
                bus_records=sum(counts.values()),
                plane_records=plane,
            )
        lane.side_files[ARTIFACT_NAME] = unified.read_text()

        # Second-long runs swing with scheduler noise, so each hub-off run
        # is paired with an adjacent hub-on run and the gate takes the
        # minimum pair ratio.  The hot-path refactor roughly halved the
        # base wall time, so the same absolute jitter is now a larger
        # relative swing — eight pairs (was five) keep the minimum a
        # reliable noise floor.
        ratios = []
        for i in range(REPEATS):
            off_s = _timed_run(_observed_session(kernel, seed, None))
            on_s = _timed_run(
                _observed_session(kernel, seed, workdir / f"unified_on{i}.ndjson")
            )
            ratios.append(on_s / off_s - 1.0)
        overhead = min(ratios)
        if overhead > OVERHEAD_BUDGET:
            raise ConfigError(
                f"observability bus overhead {overhead:+.2%} "
                f"exceeds the {OVERHEAD_BUDGET:.0%} budget (pair ratios: "
                + ", ".join(f"{r:+.2%}" for r in ratios) + ")"
            )
    return lane
