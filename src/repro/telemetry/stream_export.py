"""Reading the online efficiency-metrics NDJSON stream.

A visual-analytics frontend (or the future analyzer service) cannot wait
for teardown: it tails a file and renders windows as they close.  The
:class:`~repro.telemetry.popmetrics.PopMetricsEngine` builds each
schema-versioned record once and hands it to its sinks; with
``CouplingSession.enable_pop_metrics(stream=path)`` one of them is a
:class:`~repro.obs.sinks.FileSink` that appends one JSON object per line
and flushes after every record, the moment each virtual-time window (or
detected phase, or the final run summary) is sealed, so

    python -m repro.obs tail session.ndjson --follow --kind window

shows efficiency evolving *during* the simulation, in emission order:
``window`` records as windows close, a ``phase`` record whenever the
change-point detector seals a phase, one ``run_summary`` at finalize.

Every record carries ``schema`` (:data:`METRICS_SCHEMA`) so readers can
reject streams they do not understand; :func:`read_metrics_stream` is the
matching loader/validator.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import ConfigError
from repro.obs.archive import iter_ndjson
from repro.obs.registry import METRICS_KINDS, METRICS_SCHEMA

__all__ = [
    "METRICS_SCHEMA",
    "iter_metrics_stream",
    "read_metrics_stream",
]

def _validate_stream_record(path: str, offset: int, record: Any) -> dict[str, Any]:
    schema = record.get("schema") if isinstance(record, dict) else None
    if schema != METRICS_SCHEMA:
        raise ConfigError(
            f"{path}:+{offset}: schema {schema!r}, expected {METRICS_SCHEMA!r}"
        )
    if record.get("kind") not in METRICS_KINDS:
        raise ConfigError(
            f"{path}:+{offset}: unknown record kind {record.get('kind')!r}"
        )
    return record


def iter_metrics_stream(
    path: str, *, tail: bool = False, start: int = 0
) -> Iterator[Any]:
    """Yield validated records from one NDJSON metrics stream.

    Raises :class:`ConfigError` on a record with a missing/foreign schema
    tag or an unknown kind — a tailing frontend should fail loudly rather
    than render garbage.  Blank lines (a partially flushed tail) are
    skipped.

    With ``tail=False`` (the default) the file is treated as finished and
    bare record dicts are yielded.  With ``tail=True`` the stream yields
    ``(next_offset, record)`` pairs instead: ``next_offset`` is the byte
    position to pass back as ``start`` to resume where this pass stopped,
    and exactly one trailing *partial* line (torn mid-flush by the live
    writer, no newline yet) ends the iteration silently instead of
    raising.  A malformed line that is newline-terminated is mid-file
    corruption and fails loudly in both modes.
    """
    prev = start
    for offset, record in iter_ndjson(path, tail=tail, start=start):
        _validate_stream_record(str(path), prev, record)
        prev = offset
        yield (offset, record) if tail else record


def read_metrics_stream(path: str) -> list[dict[str, Any]]:
    """Load a whole metrics stream (see :func:`iter_metrics_stream`)."""
    return list(iter_metrics_stream(path))
