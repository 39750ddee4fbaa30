"""Measurement helpers shared by the bench drivers.

Every driver picks its parameter set with :func:`by_scale`, the one scale
check.  The extension lanes (chaos, codec, flow, metrics, obs, steering)
each collect rows for a scale and seed into one :class:`LaneResult` and
stream with the one :data:`SMALL_PACKS` instrumentation cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.analysis.engine import AnalysisConfig
from repro.apps.base import AppKernel
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import MachineSpec, TERA100
from repro.telemetry import Telemetry
from repro.util.tables import Table

T = TypeVar("T")

#: Small packs so every writer flushes a stream of them: the lanes' fault
#: tampering, compression ratios, stage latencies and POP windows need
#: per-pack samples, not one tail flush per rank.
SMALL_PACKS = InstrumentationCost(block_size=4096, na_buffers=2)


def by_scale(scale: str, *, small: T, paper: T) -> T:
    """The parameter set a driver runs at ``scale`` (``small`` or ``paper``)."""
    if scale == "small":
        return small
    if scale == "paper":
        return paper
    raise ConfigError(f"unknown scale {scale!r}")


@dataclass
class LaneResult:
    """One lane's rows: raw values, in the column's unit, keyed by column name.

    ``formats`` maps each column, in table order, to the spec its cells
    render with: ``format(value, spec)``, except that a bool reads
    ``yes``/``no`` and an empty spec leaves the value to :class:`Table`.
    Rows keep the unrounded values, so tests compare at full precision
    while the table (and every ``BENCH_*.json`` cell) stays fixed-width.
    """

    title: str
    formats: dict[str, str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    #: side file name -> text, written next to the JSON by ``--json``
    side_files: dict[str, str] = field(default_factory=dict, repr=False)

    def add(self, **row: Any) -> None:
        if row.keys() != self.formats.keys():
            raise ValueError(f"row columns {list(row)} != {list(self.formats)}")
        self.rows.append(row)

    def table(self) -> Table:
        t = Table(list(self.formats), title=self.title)
        for row in self.rows:
            t.add_row(*(_cell(row[c], spec) for c, spec in self.formats.items()))
        return t


def _cell(value: Any, spec: str) -> Any:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return format(value, spec) if spec else value


@dataclass(frozen=True)
class OverheadPoint:
    """One (application, scale) overhead measurement."""

    app: str
    nprocs: int
    t_reference: float
    t_instrumented: float
    events: int
    modeled_stream_bytes: int

    @property
    def overhead_pct(self) -> float:
        if self.t_reference <= 0:
            return 0.0
        return (self.t_instrumented - self.t_reference) / self.t_reference * 100.0

    @property
    def bi_bandwidth(self) -> float:
        """Aggregate instrumentation bandwidth over the instrumented run."""
        if self.t_instrumented <= 0:
            return 0.0
        return self.modeled_stream_bytes / self.t_instrumented


def measure_overhead(
    kernel: AppKernel,
    machine: MachineSpec = TERA100,
    *,
    ratio: float = 1.0,
    seed: int = 0,
    instrumentation: InstrumentationCost | None = None,
    analysis: AnalysisConfig | None = None,
    mpi_cost=None,
    telemetry: Telemetry | None = None,
) -> OverheadPoint:
    """Instrumented-vs-reference wall-time between MPI_Init and Finalize."""
    session = CouplingSession(
        machine=machine,
        seed=seed,
        instrumentation=instrumentation,
        analysis=analysis,
        mpi_cost=mpi_cost,
        telemetry=telemetry,
    )
    name = session.add_application(kernel)
    session.set_analyzer(ratio=ratio)
    instrumented = session.run()
    reference = session.run_reference()
    run = instrumented.app(name)
    return OverheadPoint(
        app=name,
        nprocs=kernel.nprocs,
        t_reference=reference.app(name).walltime,
        t_instrumented=run.walltime,
        events=run.events,
        modeled_stream_bytes=run.modeled_stream_bytes,
    )


#: The paper's reader-count rule (Figure 14 caption):
#: ``Nr = floor(Nw / ratio)`` with a floor of one reading process.
def readers_for(writers: int, ratio: float) -> int:
    if writers < 1 or ratio <= 0:
        raise ValueError("writers must be >= 1 and ratio > 0")
    return max(1, int(writers // ratio))

