"""Steering bench: the adaptive control loop versus a static configuration.

Four rows of the same coupled workload (an instrumented SP kernel streaming
into a multi-rank analyzer): static and adaptive policies, each run healthy
and under a congestion fault plan that degrades the analyzer node's NIC
mid-streaming-phase.  The topology deliberately splits writers and
analyzers across nodes (``cores_per_node=8``) and lowers the rendezvous
threshold so every 4 KiB pack crosses the degraded link as a rendezvous
transfer — eager sends would complete into MPI buffering and writers would
never feel the congestion.

The committed baseline pins every cell of the grid, and
``tests/test_steering.py::TestBenchLane`` asserts what the grid must show:
under congestion the adaptive policy makes at least one decision, loses
strictly fewer packs than the static run and holds at least the static
analyzed-event throughput; on the healthy workload it makes *zero*
decisions.  That idle steering leaves the run bit-identical is asserted by
``tests/test_observer_invariance.py``.  The adaptive congested run's
decision log is the ``steering_decisions.json`` side file.
"""

from __future__ import annotations

import dataclasses
import json

from repro.apps.nas import SP
from repro.bench.harness import SMALL_PACKS, LaneResult, by_scale
from repro.core.session import CouplingSession, SessionResult
from repro.faults import LINK_DEGRADE, FaultPlan, FaultSpec
from repro.mpi.costmodel import CostModel
from repro.network.machine import TERA100
from repro.steering import SteeringPolicy
from repro.steering.policy import static_policy
from repro.telemetry import Telemetry

#: where in the healthy run's app wall-time the congestion plan anchors
_ANCHOR_FRACTION = 0.35
#: NIC bandwidth multiplier of the degraded analyzer node
_DEGRADE_FACTOR = 2e-5
#: ranks per node — writers on nodes 0-1, the 4-rank analyzer alone on node 2
_CORES_PER_NODE = 8
#: rendezvous threshold: below the pack size, so stream packs never go eager
_EAGER_THRESHOLD = 2048

#: table column -> cell format
COLUMNS = {
    "policy": "", "plan": "", "decisions": "", "escalations": "",
    "relaxes": "", "packs_written": "", "packs_dropped": "",
    "packs_stranded": "", "write_timeouts": "", "events_analyzed": "",
    "app_walltime_s": ".6f", "events_per_s": ".1f",
}


def bench_policy() -> SteeringPolicy:
    """The adaptive policy the lane benchmarks.

    Escalation triggers are limited to genuine transport distress: the
    healthy reference workload legitimately raises ``load_imbalance`` /
    ``worker_starvation`` / ``critical_path`` alerts, and a policy that
    acted on those would fail the zero-decision gate on the healthy rows.
    """
    return SteeringPolicy(
        name="bench-congestion",
        reduction_steps=("", "delta+dict", "delta+dict+zlib"),
        escalate_on=(
            "stream_stall",
            "stream_write_timeout",
            "stream_overflow_drop",
            "backlog_growth",
        ),
        autoscale_on=("backlog_growth", "analyzer_stall"),
        enable_rebalance=False,
    )


def _run(kernel, readers: int, seed: int, policy: SteeringPolicy,
         plan: FaultPlan | None,
         telemetry: Telemetry | None) -> tuple[SessionResult, str]:
    # Writers must share nodes 0-1 while the analyzer sits alone on node 2:
    # only inter-node traffic touches the NIC the congestion plan degrades.
    mach = dataclasses.replace(TERA100, cores_per_node=_CORES_PER_NODE)
    cost = dataclasses.replace(
        CostModel.for_machine(mach, ranks_per_node=_CORES_PER_NODE),
        eager_threshold=_EAGER_THRESHOLD,
    )
    icost = dataclasses.replace(
        SMALL_PACKS, write_timeout=2e-3, max_retries=2, overflow="drop-newest"
    )
    session = CouplingSession(
        machine=mach, seed=seed, instrumentation=icost, mpi_cost=cost,
        telemetry=telemetry if telemetry is not None else Telemetry(),
    )
    name = session.add_application(kernel)
    session.set_analyzer(nprocs=readers)
    session.enable_steering(policy)  # creates the health monitor too
    if plan is not None:
        session.inject_faults(plan)
    return session.run(), name


def _add_row(lane: LaneResult, result: SessionResult, name: str,
             policy: str, plan: str) -> None:
    run = result.app(name)
    by_action = {}
    decisions = 0
    if result.steering:
        decisions = len(result.steering["decisions"])
        by_action = result.steering["by_action"]
    writers = [st.stats() for _, st in result.world.streams if st.mode == "w"]
    readers = [st.stats() for _, st in result.world.streams if st.mode == "r"]
    events = result.report.chapter(name).profile.events_total
    lane.add(
        policy=policy,
        plan=plan,
        decisions=decisions,
        escalations=by_action.get("escalate_reduction", 0),
        relaxes=by_action.get("relax_reduction", 0),
        packs_written=sum(st["blocks_written"] for st in writers),
        packs_dropped=sum(st["blocks_dropped"] for st in writers),
        packs_stranded=sum(st["blocks_discarded_at_close"] for st in readers),
        write_timeouts=sum(st["write_timeouts"] for st in writers),
        events_analyzed=events,
        app_walltime_s=run.walltime,
        events_per_s=events / run.walltime if run.walltime > 0 else 0.0,
    )


def steering_adaptation(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> LaneResult:
    """Run the static/adaptive × healthy/congested grid.

    Every run gets its own :class:`Telemetry`, because the health monitor
    reads the session's instruments and a shared one would carry the
    earlier runs' counts into the later runs' alerts.  A ``telemetry``
    passed in is used by the adaptive congested run only, so its trace
    shows the steered session.
    """
    # Enough iterations for sustained packs; 4 analyzer ranks fill node 2.
    kernel = SP(16, "C", iterations=by_scale(scale, small=12, paper=40))
    readers = 4
    lane = LaneResult(f"Adaptive steering ({TERA100.name}, scale={scale})", COLUMNS)

    # The healthy static row anchors the congestion plan.
    run, name = _run(kernel, readers, seed, static_policy(), None, None)
    _add_row(lane, run, name, "static", "none")
    anchor = run.app(name).walltime * _ANCHOR_FRACTION

    run, name = _run(kernel, readers, seed, bench_policy(), None, None)
    _add_row(lane, run, name, "adaptive", "none")

    plan = FaultPlan(
        specs=(FaultSpec(LINK_DEGRADE, at=anchor, target=-1,
                         factor=_DEGRADE_FACTOR),),
        name="congestion",
    )
    run, name = _run(kernel, readers, seed, static_policy(), plan, None)
    _add_row(lane, run, name, "static", "congestion")

    run, name = _run(kernel, readers, seed, bench_policy(), plan, telemetry)
    _add_row(lane, run, name, "adaptive", "congestion")
    lane.side_files["steering_decisions.json"] = json.dumps(
        run.steering, indent=2, default=str
    )
    return lane
