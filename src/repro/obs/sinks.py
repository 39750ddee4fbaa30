"""Built-in bus sinks: NDJSON files, a bounded ring, and a live-tail server.

Every sink implements the bus protocol — ``emit(record) -> bool`` (False
means the sink's own backpressure policy dropped the record), ``close()``,
``stats()`` — and none of them ever raises out of ``emit`` for flow-control
reasons: the bus counts drops per sink, so a slow tail client can never
stall the simulation it is observing.
"""

from __future__ import annotations

import collections
import json
import os
import socket
import threading
from typing import IO, Any, Iterator

from repro.errors import ConfigError
from repro.obs.archive import match_record

__all__ = ["FileSink", "RingSink", "TailServer", "parse_address"]


class FileSink:
    """Append one ``json.dumps`` line per record — the NDJSON/JSONL format.

    The one record writer: the bus file sink, the POP engine's ``stream=``
    file and the telemetry ``write_jsonl`` dump all go through it, so a
    plane's records have the same bytes in every file.  ``flush_each=True``
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


class RingSink:
    """Bounded in-memory ring of the most recent records, for live query.

    Overflow policy is drop-oldest: the ring always holds the newest
    ``capacity`` records and counts what it evicted, so a consumer can
    tell "I saw everything" from "I saw the tail of a firehose".
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ConfigError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: collections.deque[dict[str, Any]] = collections.deque(
            maxlen=capacity
        )
        self.accepted = 0
        self.evicted = 0

    def emit(self, record: dict[str, Any]) -> bool:
        if len(self._ring) == self.capacity:
            self.evicted += 1
        self._ring.append(record)
        self.accepted += 1
        return True

    def __len__(self) -> int:
        return len(self._ring)

    def records(self) -> list[dict[str, Any]]:
        return list(self._ring)

    def query(
        self,
        schema: str | None = None,
        kind: str | None = None,
        since: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Filtered view over the retained records, oldest first.

        The filter is :func:`~repro.obs.archive.match_record`, the same
        predicate ``python -m repro.obs query`` applies to archives.
        """
        for record in self._ring:
            if match_record(record, schema, kind, since):
                yield record

    def stats(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "retained": len(self._ring),
            "evicted": self.evicted,
        }

    def close(self) -> None:  # ring stays queryable after the bus closes
        pass


def parse_address(address: str) -> tuple[int, Any]:
    """Classify a tail address: ``(family, sockaddr)``.

    ``HOST:PORT`` means TCP; anything else is a filesystem path for a Unix
    domain socket.  A lone ``:PORT`` binds/connects on localhost.
    """
    if ":" in address and not address.startswith(("/", ".")):
        host, _, port_s = address.rpartition(":")
        try:
            port = int(port_s)
        except ValueError:
            raise ConfigError(
                f"tail address {address!r} is neither HOST:PORT nor a socket path"
            ) from None
        return socket.AF_INET, (host or "127.0.0.1", port)
    return socket.AF_UNIX, address


class _TailClient:
    """One connected tail consumer with a bounded, thread-drained queue."""

    __slots__ = ("conn", "queue", "pending_bytes", "dropped", "sent", "thread", "dead")

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.queue: collections.deque[bytes] = collections.deque()
        self.pending_bytes = 0
        self.dropped = 0
        self.sent = 0
        self.thread: threading.Thread | None = None
        self.dead = False


class TailServer:
    """Line-delimited live-tail feed over TCP or a Unix domain socket.

    The server accepts any number of consumers; every emitted record is
    serialized once and enqueued per client.  Each client is drained by
    its own sender thread with *blocking* sends, and the per-client queue
    is bounded at ``max_pending_bytes`` — when a slow or stuck consumer
    falls that far behind, new records are dropped **for that client
    only** and counted, so backpressure never reaches the publisher (the
    simulation).  ``emit`` returns False only when every connected client
    dropped the record (no clients at all counts as delivered-to-nobody,
    True, like a file nobody reads).
    """

    def __init__(self, address: str, *, max_pending_bytes: int = 1 << 20):
        if max_pending_bytes < 1:
            raise ConfigError("max_pending_bytes must be >= 1")
        self.max_pending_bytes = max_pending_bytes
        family, sockaddr = parse_address(address)
        self._family = family
        self._server = socket.socket(family, socket.SOCK_STREAM)
        if family == socket.AF_INET:
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        else:
            if os.path.exists(sockaddr):
                os.unlink(sockaddr)
        self._server.bind(sockaddr)
        self._server.listen(8)
        self._sockpath = sockaddr if family == socket.AF_UNIX else None
        self.address = (
            "%s:%d" % self._server.getsockname()[:2]
            if family == socket.AF_INET
            else str(sockaddr)
        )
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._clients: list[_TailClient] = []
        self._closed = False
        self.records_offered = 0
        self.clients_served = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="obs-tail-accept", daemon=True
        )
        self._accept_thread.start()

    # -- connection handling -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # server socket closed
            client = _TailClient(conn)
            client.thread = threading.Thread(
                target=self._drain_loop, args=(client,),
                name="obs-tail-send", daemon=True,
            )
            with self._lock:
                self._clients.append(client)
                self.clients_served += 1
            client.thread.start()

    def _drain_loop(self, client: _TailClient) -> None:
        while True:
            with self._cond:
                while not client.queue and not self._closed and not client.dead:
                    self._cond.wait(timeout=0.5)
                if client.dead or (self._closed and not client.queue):
                    break
                chunk = client.queue.popleft()
                client.pending_bytes -= len(chunk)
            try:
                client.conn.sendall(chunk)
            except OSError:
                with self._lock:
                    client.dead = True
                break
            with self._lock:
                client.sent += 1
        try:
            client.conn.close()
        except OSError:
            pass

    # -- sink protocol --------------------------------------------------------------

    def emit(self, record: dict[str, Any]) -> bool:
        if self._closed:
            raise ConfigError("tail server is closed")
        self.records_offered += 1
        line = (json.dumps(record) + "\n").encode("utf-8")
        delivered_any = False
        had_live_client = False
        with self._lock:
            for client in self._clients:
                if client.dead:
                    continue
                had_live_client = True
                if client.pending_bytes + len(line) > self.max_pending_bytes:
                    client.dropped += 1
                    continue
                client.queue.append(line)
                client.pending_bytes += len(line)
                delivered_any = True
            self._cond.notify_all()
        return delivered_any or not had_live_client

    def stats(self) -> dict[str, Any]:
        with self._lock:
            clients = [
                {
                    "sent": c.sent,
                    "dropped": c.dropped,
                    "pending_bytes": c.pending_bytes,
                    "dead": c.dead,
                }
                for c in self._clients
            ]
        return {
            "address": self.address,
            "records_offered": self.records_offered,
            "clients_served": self.clients_served,
            "clients": clients,
        }

    def close(self) -> None:
        """Stop accepting, flush what queued, tear the clients down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            clients = list(self._clients)
            self._cond.notify_all()
        try:
            self._server.close()
        except OSError:
            pass
        for client in clients:
            if client.thread is not None:
                client.thread.join(timeout=1.0)
            with self._lock:
                client.dead = True
            try:
                client.conn.close()
            except OSError:
                pass
        if self._sockpath is not None and os.path.exists(self._sockpath):
            try:
                os.unlink(self._sockpath)
            except OSError:
                pass
