"""The built-in bus sink: NDJSON files.

Every sink implements the bus protocol — ``emit(record) -> bool`` (False
means the sink's own backpressure policy dropped the record), ``close()``,
``stats()`` — and none of them ever raises out of ``emit`` for flow-control
reasons: the bus counts drops per sink, so a slow consumer can never stall
the simulation it is observing.  A live consumer follows the flushed
:class:`FileSink` file with ``python -m repro.obs tail PATH --follow``.
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.errors import ConfigError

__all__ = ["FileSink"]


class FileSink:
    """Append one ``json.dumps`` line per record — the NDJSON/JSONL format.

    The one record writer: the bus file sinks and the telemetry
    ``write_jsonl`` dump both go through it, so a plane's records have the
    same bytes in every file.  ``flush_each=True``
    (the default) flushes after every line so a reader can tail the file
    mid-run.

    ``target`` is a path (opened/truncated immediately, closed by
    :meth:`close`) or an open text file object (caller keeps ownership).
    """

    def __init__(self, target: str | IO[str], *, flush_each: bool = True):
        if hasattr(target, "write"):
            self._fh: IO[str] = target
            self._owns = False
            self.path = getattr(target, "name", None)
        else:
            self._fh = open(target, "w")
            self._owns = True
            self.path = str(target)
        self.flush_each = flush_each
        self.records_written = 0
        self.bytes_written = 0
        self._closed = False

    def emit(self, record: dict[str, Any]) -> bool:
        if self._closed:
            raise ConfigError("observability file sink is closed")
        line = json.dumps(record)
        self._fh.write(line)
        self._fh.write("\n")
        if self.flush_each:
            self._fh.flush()
        self.records_written += 1
        self.bytes_written += len(line) + 1
        return True

    def stats(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "records_written": self.records_written,
            "bytes_written": self.bytes_written,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()
