"""Job queues: an array of individually-locked FIFOs (paper Figure 13).

To reduce contention, jobs are pushed onto a random FIFO of the array and
workers look for work by sweeping the FIFOs from a random starting point; a
back-off keeps idle workers from spinning on the locks (paper Sec. III-B).
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import BlackboardError
from repro.blackboard.entry import DataEntry
from repro.telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.blackboard.ks import KnowledgeSource


@dataclass(slots=True)
class Job:
    """A ready-to-run couple ``{{data entries}, operation}``."""

    ks: "KnowledgeSource"
    entries: list[DataEntry] = field(default_factory=list)
    #: Telemetry-clock stamp taken at submit time (None when telemetry is
    #: off); execution sites derive the FIFO dwell from it.
    t_submitted: float | None = None


class JobQueues:
    """Fixed array of locked FIFOs with random placement and sweep."""

    def __init__(self, nqueues: int = 8, seed: int = 0, telemetry: Telemetry | None = None):
        if nqueues < 1:
            raise BlackboardError(f"nqueues must be >= 1, got {nqueues}")
        self.nqueues = nqueues
        self._queues: list[deque[Job]] = [deque() for _ in range(nqueues)]
        self._locks = [threading.Lock() for _ in range(nqueues)]
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self.pushed = 0
        self.popped = 0
        self.lock_failures = 0
        self.depth_hwm = 0

    def push(self, job: Job) -> None:
        """Push to a random FIFO (contention spreading)."""
        self.push_many((job,))

    def push_many(self, jobs) -> None:
        """Push a batch of jobs with one placement draw and one lock hold.

        All jobs of a batch land on the same random FIFO in order; the
        pushed/high-water-mark/telemetry accounting is settled once per
        batch instead of once per job, which is what keeps control-system
        overhead proportional to packs rather than fan-out width.
        """
        if not jobs:
            return
        with self._rng_lock:
            idx = self._rng.randrange(self.nqueues)
        with self._locks[idx]:
            self._queues[idx].extend(jobs)
        self.pushed += len(jobs)
        depth = len(self)
        if depth > self.depth_hwm:
            self.depth_hwm = depth
        if self._tel.enabled:
            self._tel.gauge("blackboard.fifo_depth").set(depth)

    def try_pop(self, start: int | None = None) -> Job | None:
        """Sweep all FIFOs from ``start`` (random if None); None when empty."""
        if start is None:
            with self._rng_lock:
                start = self._rng.randrange(self.nqueues)
        for offset in range(self.nqueues):
            idx = (start + offset) % self.nqueues
            lock = self._locks[idx]
            if not lock.acquire(blocking=False):
                self.lock_failures += 1
                if self._tel.enabled:
                    self._tel.counter("blackboard.lock_contention").inc()
                continue
            try:
                queue = self._queues[idx]
                if queue:
                    return self._take(queue)
            finally:
                lock.release()
        # Second pass, blocking, so a busy lock cannot hide the last job.
        for offset in range(self.nqueues):
            idx = (start + offset) % self.nqueues
            with self._locks[idx]:
                queue = self._queues[idx]
                if queue:
                    return self._take(queue)
        return None

    def _take(self, queue: deque[Job]) -> Job:
        """Pop the head of a locked, non-empty FIFO and settle the accounting.

        The depth gauge follows pops as well as pushes, so a reader sees
        the drained depth rather than the depth after the last push.
        """
        self.popped += 1
        job = queue.popleft()
        if self._tel.enabled:
            self._tel.gauge("blackboard.fifo_depth").set(len(self))
        return job

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    @property
    def empty(self) -> bool:
        return len(self) == 0
