"""Measurement helpers shared by the figure drivers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.engine import AnalysisConfig
from repro.apps.base import AppKernel
from repro.core.session import CouplingSession
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import MachineSpec, TERA100
from repro.telemetry import Telemetry


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

