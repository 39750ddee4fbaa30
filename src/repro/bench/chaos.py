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
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.nas import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.faults import CANNED_PLANS, FaultPlan, make_plan
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import TERA100
from repro.telemetry import Telemetry
from repro.util.tables import Table

#: where in the healthy run's app wall-time the canned plans anchor
_ANCHOR_FRACTION = 0.35


@dataclass
class ChaosPoint:
    """One fault-plan run of the reference coupled workload."""

    plan: str
    writers: int
    readers: int
    completed: bool
    degraded: bool
    faults_injected: int
    dead_ranks: int
    packs_dropped: int
    packs_rejected: int
    data_loss_fraction: float
    app_walltime: float
    alerts: int


@dataclass
class ChaosResult:
    """Fault-plan sweep over the reference coupled workload."""

    machine: str
    scale: str
    seed: int
    points: list[ChaosPoint] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            [
                "plan", "writers", "readers", "completed", "degraded",
                "faults_injected", "dead_ranks", "packs_dropped",
                "packs_rejected", "data_loss_pct", "app_walltime_s", "alerts",
            ],
            title=f"Chaos resilience ({self.machine}, scale={self.scale})",
        )
        for p in self.points:
            t.add_row(
                p.plan, p.writers, p.readers,
                "yes" if p.completed else "no",
                "yes" if p.degraded else "no",
                p.faults_injected, p.dead_ranks, p.packs_dropped,
                p.packs_rejected, f"{p.data_loss_fraction * 100:.2f}",
                f"{p.app_walltime:.4f}", p.alerts,
            )
        return t


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


def _workload(scale: str):
    """(kernel, analyzer ranks): a crash needs >= 2 readers to survive."""
    if scale == "paper":
        return SP(256, "C", iterations=3), 16
    if scale == "small":
        return SP(16, "C", iterations=3), 4
    raise ConfigError(f"unknown scale {scale!r}")


def _session(kernel, readers, seed, telemetry):
    # Small packs so every writer flushes a stream of them: the tamper
    # faults ("every Nth pack") and the loss accounting need traffic.
    cost = InstrumentationCost(block_size=4096, na_buffers=2)
    session = CouplingSession(
        machine=TERA100, seed=seed, instrumentation=cost, telemetry=telemetry
    )
    name = session.add_application(kernel)
    session.set_analyzer(nprocs=readers)
    session.enable_monitor()
    return session, name


def _point(result, name: str, plan_label: str, readers: int) -> ChaosPoint:
    run = result.app(name)
    faults = result.faults or {}
    health = result.health or {}
    stats = result.analyzer_stats or {}
    return ChaosPoint(
        plan=plan_label,
        writers=run.nprocs,
        readers=readers,
        completed=run.walltime > 0,
        degraded=result.degraded,
        faults_injected=faults.get("injected", 0),
        dead_ranks=len(faults.get("dead_ranks", ())),
        packs_dropped=run.packs_dropped,
        packs_rejected=stats.get("packs_rejected", 0),
        data_loss_fraction=result.data_loss_fraction,
        app_walltime=run.walltime,
        alerts=len(health.get("alerts", ())),
    )


def chaos_resilience(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
    plan: str | FaultPlan | None = None,
) -> ChaosResult:
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
    kernel, readers = _workload(scale)
    result = ChaosResult(machine=TERA100.name, scale=scale, seed=seed)

    # Healthy baseline: supplies the row of reference numbers and the
    # wall-time that anchors the canned plans mid-streaming-phase.
    session, name = _session(
        kernel, readers, seed, telemetry if telemetry is not None else Telemetry()
    )
    healthy = session.run()
    result.points.append(_point(healthy, name, "none", readers))
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
        chaotic = session.run()
        result.points.append(_point(chaotic, name, label, readers))
    return result
