"""The benchmark's three workloads, their cells, and the output oracle.

A workload is a list of cells, run in an order drawn from the seed, each
with the seed as its simulation seed.  A cell is one call into an existing figure
driver or session (one Figure 15 overhead point, one Figure 14 stream
point, one profiled coupling session).  Running a cell returns an
:class:`Outcome`: the cell's output rows reduced to a canonical digest,
plus the seed-independent conservation failures found in them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from repro.apps.eulermhd import EulerMHD
from repro.apps.nas import LU, SP
from repro.bench import figures
from repro.bench.harness import measure_overhead, readers_for
from repro.core.session import CouplingSession
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import TERA100
from repro.util.units import MIB

#: Figure 14 ``small`` grid: writer counts x writer/reader ratios.
STREAM_WRITERS = (64, 160, 320)
STREAM_RATIOS = (1, 4, 16, 32)
STREAM_BYTES_PER_WRITER = 32 * MIB
STREAM_BLOCK = MIB

WORKLOADS = ("overhead", "stream", "reduce")


@dataclass
class Outcome:
    digest: str
    problems: list[str]
    #: events captured by the instrumentation, as the session reports them
    events: int = 0


@dataclass(frozen=True)
class Cell:
    label: str
    run: Callable[[int], Outcome]


def digest(rows: Any) -> str:
    """Canonical digest of a cell's rows (floats serialise by ``repr``)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@contextmanager
def captured_sessions():
    """Collect the :class:`SessionResult` of every ``CouplingSession.run``.

    ``measure_overhead`` keeps only the overhead point; the conservation
    checks need the instrumented session's packs and report as well.
    """
    results: list[Any] = []
    original = CouplingSession.run

    def run(self):
        result = original(self)
        results.append(result)
        return result

    CouplingSession.run = run
    try:
        yield results
    finally:
        CouplingSession.run = original


def session_problems(result) -> list[str]:
    """Seed-independent conservation checks on one instrumented session."""
    problems = []
    emitted = sum(run.packs + run.packs_dropped for run in result.apps.values())
    analysed = result.analyzer_stats["packs"] if result.analyzer_stats else 0
    if emitted != analysed:
        problems.append(f"packs emitted {emitted} != packs analysed {analysed}")
    captured = sum(run.events for run in result.apps.values())
    reported = sum(ch.profile.events_total for ch in result.report.chapters)
    if captured != reported:
        problems.append(f"events captured {captured} != report events_total {reported}")
    if result.data_loss_fraction != 0:
        problems.append(f"data_loss_fraction {result.data_loss_fraction} != 0")
    return problems


def _overhead_cell(kernel_factory: Callable[[], Any]) -> Callable[[int], Outcome]:
    def run(seed: int) -> Outcome:
        with captured_sessions() as sessions:
            point = measure_overhead(kernel_factory(), TERA100, ratio=1.0, seed=seed)
        (session,) = sessions
        return Outcome(digest(dataclasses.asdict(point)), session_problems(session), point.events)

    return run


def _stream_cell(writers: int, ratio: int) -> Callable[[int], Outcome]:
    def run(seed: int) -> Outcome:
        # The Figure 14 driver's own per-point function: each grid point is
        # a separately timed and checked cell.
        point = figures._stream_point(
            TERA100, writers, ratio, STREAM_BYTES_PER_WRITER, STREAM_BLOCK, seed
        )
        problems = []
        if point["bytes"] != writers * STREAM_BYTES_PER_WRITER:
            problems.append(
                f"read {point['bytes']:.0f} B of {writers * STREAM_BYTES_PER_WRITER} written"
            )
        readers = readers_for(writers, ratio)
        if point["readers"] != readers:
            problems.append(f"{point['readers']:.0f} readers, expected {readers}")
        if not point["throughput"] > 0:
            problems.append("non-positive throughput")
        return Outcome(digest(point), problems)

    return run


def _reduce_cell(chain: str) -> Callable[[int], Outcome]:
    def run(seed: int) -> Outcome:
        session = CouplingSession(
            machine=TERA100, seed=seed, instrumentation=InstrumentationCost(block_size=4096)
        )
        session.add_application(LU(64, "D", iterations=4))
        session.set_analyzer(ratio=4)
        session.set_reduction(chain)
        result = session.run()
        stats = result.analyzer_stats
        rows = {
            "apps": {name: dataclasses.asdict(app) for name, app in result.apps.items()},
            "analyzer": {
                key: stats[key]
                for key in ("packs", "bytes", "bytes_wire", "decode_cpu_s", "codecs_seen")
            },
            "report": result.report.render(verbosity=2),
        }
        events = sum(app.events for app in result.apps.values())
        return Outcome(digest(rows), session_problems(result), events)

    return run


def cells(workload: str, seed: int | None = None) -> list[Cell]:
    """The workload's cells, in an order shuffled by ``seed`` when given."""
    found = _cells(workload)
    if seed is not None:
        random.Random(seed).shuffle(found)
    return found


def _cells(workload: str) -> list[Cell]:
    if workload == "overhead":
        return [
            Cell("SP.D-256", _overhead_cell(lambda: SP(256, "D", iterations=3))),
            Cell("LU.C-256", _overhead_cell(lambda: LU(256, "C", iterations=2))),
            Cell("EulerMHD-256", _overhead_cell(lambda: EulerMHD(256, iterations=6))),
        ]
    if workload == "stream":
        return [
            Cell(f"w{writers}-r{ratio}", _stream_cell(writers, ratio))
            for writers in STREAM_WRITERS
            for ratio in STREAM_RATIOS
        ]
    if workload == "reduce":
        return [
            Cell("LU.D-64-identity", _reduce_cell("")),
            Cell("LU.D-64-delta+dict+zlib", _reduce_cell("delta+dict+zlib")),
        ]
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
