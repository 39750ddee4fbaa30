"""The host clock: wall-clock time of the simulator itself.

Everything else in :mod:`repro.telemetry` is stamped in **virtual kernel
seconds** — the time the *simulated* system experiences.  This module owns
the other clock.  The two never mix: virtual time flows through
:class:`~repro.telemetry.core.Telemetry`'s bound clock, host time flows
through :func:`host_now`, and every probe in the codebase draws from one or
the other, never both.

Every wall-clock read in the repository (blackboard workers, job execution,
analysis CPU attribution, bench elapsed timing, the :class:`Telemetry`
fallback clock) goes through :func:`host_now`, so a test can inject a fake
with :func:`fake_host_clock` and make host-time accounting deterministic.

Attributing host time to the simulator's layers is not done in-tree: the
``perfbench/`` tracer wraps the entry points from outside and reports an
exclusive per-layer split (see ``perfbench/README.md``).
"""

from __future__ import annotations

import os
import platform
import time
from contextlib import contextmanager
from typing import Any, Callable

_CLOCK: Callable[[], float] = time.perf_counter


def host_now() -> float:
    """The wall-clock instant, in seconds, from the injectable host clock."""
    return _CLOCK()


def set_host_clock(clock: Callable[[], float] | None) -> Callable[[], float]:
    """Swap the process-wide host clock; returns the previous one.

    ``None`` restores the default (``time.perf_counter``).  Tests should
    prefer the :func:`fake_host_clock` context manager, which restores
    automatically.
    """
    global _CLOCK
    previous = _CLOCK
    _CLOCK = clock if clock is not None else time.perf_counter
    return previous


@contextmanager
def fake_host_clock(clock: Callable[[], float]):
    """Scoped clock injection: every host-time probe reads ``clock`` inside."""
    previous = set_host_clock(clock)
    try:
        yield clock
    finally:
        set_host_clock(previous)


def host_environment() -> dict[str, Any]:
    """The host fingerprint stamped on bench artefacts for comparability."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }
