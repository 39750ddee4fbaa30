"""One gate for the observer bar: watching a run must not change it.

Eight observation factors — telemetry, the health monitor, POP metrics
(every record the engine emits, captured by a sink), provenance, the observability bus (file sink),
an empty fault plan, the identity reduction chain and steering (off, the
static policy, or the bench policy left idle) — are switched on in the rows
of a literal table that covers every feasible pair of factor levels.  Each
row's run must reproduce the all-off reference run's fingerprint; each
plane's own output must be the same on every row where that plane is on,
so one observer cannot perturb another; and every enabled plane must show
it actually ran, so no row passes vacuously.

The bench lanes (``metrics``, ``steering``, ``obs``) rely on this test for
their observer bar instead of re-running a plain reference themselves.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.apps.nas import SP
from repro.bench.steering import bench_policy
from repro.core.session import CouplingSession
from repro.faults import FaultPlan
from repro.instrument.overhead import InstrumentationCost
from repro.mpi.costmodel import CostModel
from repro.network.machine import TERA100
from repro.steering.policy import static_policy
from repro.telemetry import Telemetry
from repro.telemetry.popmetrics import PopConfig

pytestmark = [
    pytest.mark.chaos, pytest.mark.codec, pytest.mark.flow,
    pytest.mark.metrics, pytest.mark.steering, pytest.mark.obs,
]

FACTORS = ("telemetry", "monitor", "pop", "provenance", "bus", "empty_plan",
           "identity_chain", "steering")
LEVELS = {factor: (0, 1) for factor in FACTORS}
LEVELS["steering"] = ("off", "static", "idle")

#: Row 0 is the reference; the rest cover every feasible pair of levels
#: (``test_rows_are_a_pairwise_cover`` keeps it that way).
ROWS = (
    # tel mon pop prov bus plan chain steering
    (0, 0, 0, 0, 0, 0, 0, "off"),
    (1, 1, 1, 1, 1, 0, 1, "static"),
    (1, 1, 0, 1, 0, 1, 0, "idle"),
    (1, 0, 1, 0, 1, 1, 1, "off"),
    (0, 0, 0, 1, 1, 1, 1, "off"),
    (1, 1, 1, 0, 0, 1, 0, "static"),
    (1, 1, 1, 0, 1, 0, 1, "idle"),
    (1, 1, 1, 0, 1, 1, 0, "off"),
    (1, 1, 0, 1, 0, 0, 1, "static"),
)


#: Blackboard bytes booked per alert the monitor submits (``KS_HealthWatch``).
ALERT_ENTRY_BYTES = 96


def feasible(row: tuple) -> bool:
    """Monitor, POP and steering need telemetry; steering needs the monitor."""
    on = dict(zip(FACTORS, row))
    steered = on["steering"] != "off"
    if (on["monitor"] or on["pop"] or steered) and not on["telemetry"]:
        return False
    return not (steered and not on["monitor"])


def _pairs(row: tuple) -> set[tuple]:
    return {
        (i, row[i], j, row[j])
        for i, j in itertools.combinations(range(len(FACTORS)), 2)
    }


def test_rows_are_a_pairwise_cover():
    assert all(feasible(row) for row in ROWS)
    assert ROWS[0] == (0,) * 7 + ("off",)
    assert len(set(ROWS)) == len(ROWS)
    every_row = [r for r in itertools.product(*LEVELS.values()) if feasible(r)]
    needed = set().union(*map(_pairs, every_row))
    covered = set().union(*map(_pairs, ROWS))
    assert needed - covered == set()


@dataclasses.dataclass
class Observed:
    on: dict
    result: object
    session: CouplingSession
    pop_records: list | None
    flows: list | None


def _observe(row: tuple, workdir) -> Observed:
    on = dict(zip(FACTORS, row))
    tag = "".join(str(level) for level in row)
    mach = dataclasses.replace(TERA100, cores_per_node=8)
    cost = dataclasses.replace(
        CostModel.for_machine(mach, ranks_per_node=8), eager_threshold=2048)
    icost = InstrumentationCost(
        block_size=4096, na_buffers=2, write_timeout=2e-3, max_retries=2,
        overflow="drop-newest")
    session = CouplingSession(
        machine=mach, seed=7, instrumentation=icost, mpi_cost=cost,
        telemetry=Telemetry() if on["telemetry"] else None)
    session.add_application(SP(16, "C", iterations=3))
    session.set_analyzer(nprocs=4)
    if on["monitor"]:
        session.enable_monitor()
    pop_records = [] if on["pop"] else None
    if on["pop"]:
        session.enable_pop_metrics(PopConfig(window=0.004)).add_sink(
            pop_records.append)
    if on["steering"] != "off":
        session.enable_steering(
            static_policy() if on["steering"] == "static" else bench_policy())
    flows = session.enable_provenance() if on["provenance"] else None
    if on["bus"]:
        session.enable_observability(str(workdir / f"bus_{tag}.ndjson"))
    if on["empty_plan"]:
        session.inject_faults(FaultPlan(specs=()))
    if on["identity_chain"]:
        session.set_reduction("")
    result = session.run()
    return Observed(
        on=on,
        result=result,
        session=session,
        pop_records=pop_records,
        flows=(
            sorted((r.as_dict() for r in flows.records()),
                   key=lambda d: d["flow_id"])
            if flows is not None else None
        ),
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("observer_invariance")
    return [_observe(row, workdir) for row in ROWS]


def fingerprint(result, *, exempt_wire: bool) -> dict:
    """Everything a run computes that an observer must leave unchanged.

    ``exempt_wire`` drops the physical-wire stream counters, which the
    provenance trailer legitimately grows.
    """
    stats = result.analyzer_stats
    stream = {
        key: value for key, value in stats["stream"].items()
        if not (exempt_wire and (key.startswith("bytes_wire") or key == "pack_ratio"))
    }
    return {
        "apps": {
            name: (app.walltime, app.events, app.packs, app.packs_dropped)
            for name, app in result.apps.items()
        },
        "analyzer_walltime": result.analyzer_walltime,
        "analyzer": (stats["packs"], stats["bytes"]),
        "stream": stream,
        "degraded": result.degraded,
        "data_loss_fraction": result.data_loss_fraction,
        "chapters": [chapter.render() for chapter in result.report.chapters],
    }


def board_without_alerts(observed: Observed) -> dict:
    """Board stats with the monitor's own alert entries taken out."""
    board = dict(observed.result.analyzer_stats["board"])
    if observed.on["monitor"]:
        alerts = len(observed.session.monitor.alerts)
        board["entries_submitted"] -= alerts
        board["jobs_executed"] -= alerts
        board["bytes_total"] -= ALERT_ENTRY_BYTES * alerts
    return board


@pytest.mark.parametrize("index", range(1, len(ROWS)), ids=lambda i: f"row{i}")
def test_row_matches_reference(runs, index):
    reference, observed = runs[0], runs[index]
    exempt = bool(observed.on["provenance"])
    assert fingerprint(observed.result, exempt_wire=exempt) == fingerprint(
        reference.result, exempt_wire=exempt)
    assert board_without_alerts(observed) == board_without_alerts(reference)


@pytest.mark.parametrize("index", range(len(ROWS)), ids=lambda i: f"row{i}")
def test_every_enabled_plane_ran(runs, index):
    observed = runs[index]
    on, result = observed.on, observed.result
    if on["monitor"]:
        assert result.health["ticks"] > 0
    if on["pop"]:
        assert result.efficiency["windows"] > 0 and observed.pop_records
    if on["provenance"]:
        assert observed.flows
    if on["bus"]:
        assert result.obs["rejected"] == 0
        if on["telemetry"]:
            assert result.obs["published"] > 0
    if on["steering"] != "off":
        assert result.steering["decisions"] == []
    if on["empty_plan"]:
        assert result.faults is None


@pytest.mark.parametrize("plane", ["pop", "monitor", "provenance"])
def test_each_plane_output_is_the_same_on_every_row(runs, plane):
    def output(observed):
        if plane == "pop":
            return observed.pop_records
        if plane == "monitor":
            return observed.session.monitor.alerts
        return observed.flows

    rows = [i for i, observed in enumerate(runs) if observed.on[plane]]
    assert len(rows) >= 2
    first = output(runs[rows[0]])
    for i in rows[1:]:
        assert output(runs[i]) == first, f"{plane} output: row {i} != row {rows[0]}"
