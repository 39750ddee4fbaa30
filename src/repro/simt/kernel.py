"""The simulation event loop.

The kernel keeps a binary heap of ``(time, sequence, event)`` entries.  Events
fire in timestamp order; ties break by scheduling order, which makes whole
simulations deterministic.  Deadlock (live processes but an empty heap) raises
:class:`~repro.errors.DeadlockError` naming the blocked processes, which in
practice pinpoints mismatched sends/receives immediately.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator

from repro.errors import DeadlockError, ProcessCrashError, SimulationError
from repro.simt.primitives import AllOf, AnyOf, SimEvent, Timeout
from repro.simt.process import Process
from repro.telemetry import KERNEL_PID, NULL_TELEMETRY, Telemetry

_INF = float("inf")


class PeriodicHook:
    """One periodic kernel callback (see :meth:`Kernel.call_every`)."""

    __slots__ = ("interval", "fn", "next_due", "active", "fired")

    def __init__(self, interval: float, fn):
        self.interval = interval
        self.fn = fn
        self.next_due = 0.0
        self.active = True
        self.fired = 0

    def cancel(self) -> None:
        self.active = False


class Kernel:
    """Discrete-event simulation kernel with virtual time in seconds."""

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_processes",
        "_current",
        "_crashes",
        "_hooks",
        "_hooks_due",
        "telemetry",
        "_ctr_dispatched",
        "_gauge_heap",
        "trace",
        "events_dispatched",
    )

    def __init__(self, *, trace: bool = False, telemetry: Telemetry | None = None):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._seq = 0
        self._processes: list[Process] = []
        self._current: Process | None = None
        self._crashes: list[tuple[Process, BaseException]] = []
        self._hooks: list[PeriodicHook] = []
        #: earliest ``next_due`` among active hooks (inf when none) — the
        #: dispatch loop's per-event hook test is one float compare, never
        #: a scan.  May go stale-low (a directly cancelled hook), in which
        #: case :meth:`_fire_hooks` recomputes and fires nothing; it must
        #: never be stale-high, so every registration lowers it.
        self._hooks_due: float = _INF
        # The trace debug aid records dispatch markers through telemetry, so
        # trace=True without an explicit instance gets a private live one.
        if telemetry is None and trace:
            telemetry = Telemetry()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            self.telemetry.bind_clock(lambda: self.now)
            self.telemetry.name_track(KERNEL_PID, "simulation kernel")
            self._ctr_dispatched = self.telemetry.counter("kernel.events_dispatched")
            self._gauge_heap = self.telemetry.gauge("kernel.heap_depth", pid=KERNEL_PID)
        self.trace = trace
        self.events_dispatched = 0

    # -- process management ----------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Create a process from a generator; it starts at the current time."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    @property
    def current_process(self) -> Process | None:
        """The process being stepped right now (None outside process code)."""
        return self._current

    def alive_processes(self) -> list[Process]:
        return [p for p in self._processes if p.is_alive]

    # -- waitable factories ------------------------------------------------------

    def event(self, name: str = "") -> SimEvent:
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def any_of(self, events: list[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: list[SimEvent]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------------

    def _schedule_event(self, event: SimEvent, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def _record_crash(self, proc: Process, exc: BaseException) -> None:
        self._crashes.append((proc, exc))

    # -- periodic callbacks ------------------------------------------------------

    def call_every(self, interval: float, fn, *, first: float | None = None) -> PeriodicHook:
        """Register ``fn(now)`` to run every ``interval`` virtual seconds.

        Hooks are observers, not events: they never enter the schedule, so
        they cannot keep the simulation alive — they fire only while real
        events remain, immediately before the dispatch that first reaches
        or passes their due time (the clock reads exactly the due time).
        Multiple hooks due at once fire in registration order, keeping runs
        deterministic.  A hook must not raise; exceptions propagate out of
        :meth:`run`.  ``run(until=<deadline>)`` does not fire hooks in the
        idle gap between the last event and the deadline.

        ``first`` pins the first due time to an absolute virtual instant
        (it must not be in the past), letting a subscriber align its firing
        grid — e.g. window boundaries at exact multiples of the interval —
        independent of when it attached; later firings step by ``interval``
        from there.
        """
        if interval <= 0:
            raise SimulationError(f"call_every interval must be > 0, got {interval}")
        hook = PeriodicHook(float(interval), fn)
        if first is None:
            hook.next_due = self.now + hook.interval
        else:
            if first < self.now:
                raise SimulationError(
                    f"call_every first={first} is in the past (now={self.now})"
                )
            hook.next_due = float(first)
        self._hooks.append(hook)
        if hook.next_due < self._hooks_due:
            self._hooks_due = hook.next_due
        return hook

    def cancel_every(self, hook: PeriodicHook) -> None:
        hook.cancel()
        if hook in self._hooks:
            self._hooks.remove(hook)
        self._hooks_due = min(
            (h.next_due for h in self._hooks if h.active), default=_INF
        )

    def _fire_hooks(self, upto: float) -> None:
        """Run every hook due at or before ``upto``, advancing the clock."""
        while True:
            due = min(
                (h.next_due for h in self._hooks if h.active), default=None
            )
            if due is None or due > upto:
                break
            if due > self.now:
                self.now = due
            for hook in list(self._hooks):
                if hook.active and hook.next_due <= due:
                    hook.next_due += hook.interval
                    hook.fired += 1
                    hook.fn(self.now)
            if not any(h.active for h in self._hooks):
                self._hooks = [h for h in self._hooks if h.active]
                break
        self._hooks_due = min(
            (h.next_due for h in self._hooks if h.active), default=_INF
        )

    # -- the loop ---------------------------------------------------------------

    def step(self) -> None:
        """Dispatch the next scheduled event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _seq, event = heapq.heappop(self._heap)
        if when < self.now:
            raise SimulationError("time went backwards (kernel bug)")
        if when >= self._hooks_due:
            self._fire_hooks(when)
        self.now = when
        self.events_dispatched += 1
        if event.state == 0:  # PENDING: a scheduled timeout firing now
            event.state = 1  # SUCCEEDED (value was set at creation)
        tel = self.telemetry
        if tel.enabled:
            self._ctr_dispatched.inc()
            self._gauge_heap.set(len(self._heap))
            if self.trace:
                tel.instant(
                    "kernel.fire",
                    pid=KERNEL_PID,
                    cat="kernel",
                    args={"event": repr(event)},
                )
        event._dispatch()
        # A process that crashed with nobody joining it must surface the
        # error instead of silently vanishing from the simulation.
        if event._is_process and event.state == 2 and event.num_waiters == 0:
            raise ProcessCrashError(event.name, event.value) from event.value

    def run(self, until: float | SimEvent | None = None) -> Any:
        """Run to completion, to a deadline, or until an event fires.

        * ``until=None`` — drain the schedule.  If live processes remain
          afterwards, raise :class:`DeadlockError`.
        * ``until=<float>`` — advance virtual time to the deadline.
        * ``until=<SimEvent>`` — run until that event triggers and return its
          value (raising if it failed).
        """
        if self.telemetry.enabled:
            with self.telemetry.span("kernel.run", pid=KERNEL_PID, cat="kernel"):
                return self._drain(until)
        return self._drain(until)

    def _drain(self, until: float | SimEvent | None) -> Any:
        fast = not self.telemetry.enabled
        if isinstance(until, SimEvent):
            stop_event = until
            # Joining through run() counts as observing the event.
            stop_event.add_callback(lambda _ev: None)
            while not stop_event.triggered:
                if not self._heap:
                    self._raise_deadlock(waiting_for=stop_event)
                self.step()
            if stop_event.state == 2:  # FAILED
                raise stop_event.value
            return stop_event.value

        if until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(f"deadline {deadline} is in the past ({self.now})")
            if fast:
                self._drain_fast(deadline)
            else:
                while self._heap and self._heap[0][0] <= deadline:
                    self.step()
            self.now = deadline
            return None

        if fast:
            self._drain_fast(None)
        else:
            while self._heap:
                self.step()
        blocked = self.alive_processes()
        if blocked:
            raise DeadlockError([p.name for p in blocked])
        return None

    def _drain_fast(self, deadline: float | None) -> None:
        """The telemetry-off dispatch loop: :meth:`step` inlined, with
        same-timestamp batching.

        Event order, hook firing points and the virtual clock are exactly
        those of the ``step()`` loop — only per-event Python overhead is
        removed: no method-call frames, no per-event telemetry branch, the
        hook test is one compare against :attr:`_hooks_due`, and events
        sharing a timestamp are dispatched in a batch that skips the
        redundant back-in-time check after the first.
        """
        heap = self._heap
        pop = heapq.heappop
        limit = _INF if deadline is None else deadline
        while heap and heap[0][0] <= limit:
            when, _seq, event = pop(heap)
            if when < self.now:
                raise SimulationError("time went backwards (kernel bug)")
            while True:
                # A dispatched callback may register a hook due *now*
                # (call_every(first=now)), so the compare stays per-event,
                # exactly like step(); after firing, _hooks_due > when.
                if when >= self._hooks_due:
                    self._fire_hooks(when)
                self.now = when
                self.events_dispatched += 1
                if event.state == 0:  # PENDING: a timeout firing now
                    event.state = 1  # SUCCEEDED (value was set at creation)
                event._dispatch()
                if event._is_process and event.state == 2 and event.num_waiters == 0:
                    raise ProcessCrashError(event.name, event.value) from event.value
                if heap and heap[0][0] == when:
                    when, _seq, event = pop(heap)
                else:
                    break

    def _raise_deadlock(self, waiting_for: SimEvent) -> None:
        blocked = [p.name for p in self.alive_processes()]
        raise DeadlockError(blocked or [f"<waiting for {waiting_for!r}>"])
