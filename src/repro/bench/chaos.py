"""Chaos bench: how the coupling behaves when faults are injected mid-run.

Each row runs the same fig14-style coupled workload (an instrumented SP
kernel streaming into a multi-rank analyzer) under one fault plan and
reports whether the application still completed, whether the run degraded,
and what fraction of emitted packs never reached analysis.  A healthy
plan-free baseline row anchors the comparison and supplies the virtual
wall-time used to place the fault anchor (paper-spirit: faults strike in
the middle of the streaming phase, not during startup or teardown).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.apps.nas import SP
from repro.bench.harness import SMALL_PACKS, LaneResult, by_scale
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.faults import CANNED_PLANS, FaultPlan, make_plan
from repro.network.machine import TERA100
from repro.telemetry import Telemetry

#: where in the healthy run's app wall-time the canned plans anchor
_ANCHOR_FRACTION = 0.35

#: table column -> cell format
COLUMNS = {
    "plan": "", "writers": "", "readers": "", "completed": "",
    "degraded": "", "faults_injected": "", "dead_ranks": "",
    "packs_dropped": "", "packs_rejected": "", "data_loss_pct": ".2f",
    "app_walltime_s": ".4f", "alerts": "",
}


def load_plan(spec: str, *, at: float, seed: int = 0) -> FaultPlan:
    """Resolve a ``--chaos`` argument: a canned plan name or a JSON file.

    Canned names are anchored at virtual time ``at``; a JSON file carries
    its own absolute timestamps and is used verbatim.
    """
    if spec in CANNED_PLANS:
        return make_plan(spec, at=at, seed=seed)
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read fault plan {spec!r}: {exc}") from None
        return FaultPlan.from_json(data)
    raise ConfigError(
        f"unknown fault plan {spec!r}: not a canned name "
        f"({', '.join(CANNED_PLANS)}) and not a JSON file"
    )


def _session(kernel, readers, seed, telemetry):
    session = CouplingSession(
        machine=TERA100, seed=seed, instrumentation=SMALL_PACKS, telemetry=telemetry
    )
    name = session.add_application(kernel)
    session.set_analyzer(nprocs=readers)
    session.enable_monitor()
    return session, name


def _add_row(lane: LaneResult, result, name: str, plan_label: str, readers: int) -> None:
    run = result.app(name)
    faults = result.faults or {}
    health = result.health or {}
    stats = result.analyzer_stats or {}
    lane.add(
        plan=plan_label,
        writers=run.nprocs,
        readers=readers,
        completed=run.walltime > 0,
        degraded=result.degraded,
        faults_injected=faults.get("injected", 0),
        dead_ranks=len(faults.get("dead_ranks", ())),
        packs_dropped=run.packs_dropped,
        packs_rejected=stats.get("packs_rejected", 0),
        data_loss_pct=result.data_loss_fraction * 100,
        app_walltime_s=run.walltime,
        alerts=len(health.get("alerts", ())),
    )


def chaos_resilience(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
    plan: str | FaultPlan | None = None,
) -> LaneResult:
    """Run the coupled workload healthy, then under fault plans.

    ``plan`` narrows the sweep to one plan (a canned name, a JSON plan
    file, or a :class:`FaultPlan`); by default every canned plan runs.

    Every session runs with a health monitor on its own
    :class:`Telemetry`: the monitor reads the session's instruments, so a
    shared one would carry earlier plans' counts into later plans'
    ``alerts``.  A ``telemetry`` passed in is used by the healthy
    (``none``) session only, so its trace shows the plan-free run and the
    rows are the same with or without it.
    """
    # (kernel, analyzer ranks): a crash needs >= 2 readers to survive.
    kernel, readers = by_scale(
        scale,
        small=(SP(16, "C", iterations=3), 4),
        paper=(SP(256, "C", iterations=3), 16),
    )
    lane = LaneResult(f"Chaos resilience ({TERA100.name}, scale={scale})", COLUMNS)

    # Healthy baseline: supplies the row of reference numbers and the
    # wall-time that anchors the canned plans mid-streaming-phase.
    session, name = _session(
        kernel, readers, seed, telemetry if telemetry is not None else Telemetry()
    )
    healthy = session.run()
    _add_row(lane, healthy, name, "none", readers)
    anchor = healthy.app(name).walltime * _ANCHOR_FRACTION

    if plan is None:
        plans = [(p, make_plan(p, at=anchor, seed=seed)) for p in CANNED_PLANS]
    elif isinstance(plan, FaultPlan):
        plans = [(plan.name, plan)]
    else:
        resolved = load_plan(plan, at=anchor, seed=seed)
        plans = [(resolved.name, resolved)]

    for label, fault_plan in plans:
        session, name = _session(kernel, readers, seed, Telemetry())
        session.inject_faults(fault_plan)
        _add_row(lane, session.run(), name, label, readers)
    return lane
