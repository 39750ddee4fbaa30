"""Unified observability bus: one streaming record plane for the system.

The reproduction grew four record planes one at a time — virtual-time
telemetry JSONL, the POP efficiency NDJSON stream, health alerts, steering
decisions — each with its own schema tag, writer and file format.  This
package gives them a single in-situ feed, in the spirit of the paper's own
thesis (measurements as online streams, not post-mortem files).  Host time
is not a record plane: ``perfbench/`` attributes it from outside.

* :mod:`repro.obs.registry` — the central schema registry (all four
  ``schema`` tags and their kind sets) plus :func:`make_record`, the one
  record-assembly point;
* :mod:`repro.obs.bus` — :class:`ObservabilityBus`, validate-on-publish
  fan-out with per-sink delivery/drop/error accounting;
* :mod:`repro.obs.sinks` — NDJSON :class:`FileSink` (the one record
  writer every plane uses), bounded :class:`RingSink` for live query, and
  :class:`TailServer`, a line-delimited TCP/Unix-socket live-tail feed;
* :mod:`repro.obs.archive` — torn-tail-tolerant NDJSON reading and the
  run-archive query engine behind ``python -m repro.obs``.

Wire-up is one call on a session::

    session = CouplingSession(telemetry=Telemetry())
    bus = session.enable_observability(path="run.ndjson", tail="127.0.0.1:0")
    ...
    result = session.run()       # result.obs carries the bus summary
    # meanwhile:  python -m repro.obs tail run.ndjson --schema repro.health/1
"""

from repro.obs.archive import ArchiveScan, iter_archive, iter_ndjson, match_record
from repro.obs.bus import ObservabilityBus, SinkBinding
from repro.obs.registry import (
    HEALTH_SCHEMA,
    METRICS_SCHEMA,
    REGISTRY,
    STEERING_SCHEMA,
    TELEMETRY_SCHEMA,
    SchemaRegistry,
    SchemaSpec,
    default_registry,
    make_record,
    record_time,
)
from repro.obs.sinks import FileSink, RingSink, TailServer, parse_address

__all__ = [
    "ObservabilityBus",
    "SinkBinding",
    "SchemaRegistry",
    "SchemaSpec",
    "REGISTRY",
    "default_registry",
    "make_record",
    "record_time",
    "TELEMETRY_SCHEMA",
    "METRICS_SCHEMA",
    "HEALTH_SCHEMA",
    "STEERING_SCHEMA",
    "FileSink",
    "RingSink",
    "TailServer",
    "parse_address",
    "iter_ndjson",
    "iter_archive",
    "match_record",
    "ArchiveScan",
]
