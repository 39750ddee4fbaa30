"""Ring-buffer time series over the telemetry instruments.

The monitor's data plane: a :class:`Timeline` periodically snapshots every
counter, gauge and histogram of one :class:`~repro.telemetry.Telemetry`
into fixed-capacity ring buffers stamped in virtual kernel time, so online
detectors (and report tables) can ask windowed questions — rate over the
last window, mean/p50/p95 of a level series, trend slope, high-water mark —
with strictly bounded memory regardless of run length.

Two series kinds exist: ``"cum"`` series hold cumulative values (counter
values, histogram count/total) whose first derivative is the interesting
signal, and ``"level"`` series hold instantaneous levels (gauge values)
where the distribution over the window matters.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.core import Telemetry

#: cumulative series: monotone totals, differentiate for rates
CUMULATIVE = "cum"
#: level series: instantaneous values, aggregate over the window
LEVEL = "level"


class TimeSeries:
    """Fixed-capacity ring of ``(t, value)`` samples in virtual time."""

    __slots__ = ("name", "kind", "capacity", "_buf", "_next", "_full",
                 "high_water", "low_water", "total_points")

    def __init__(self, name: str, kind: str = LEVEL, capacity: int = 256):
        if kind not in (CUMULATIVE, LEVEL):
            raise ConfigError(f"unknown series kind {kind!r}")
        if capacity < 2:
            raise ConfigError(f"series capacity must be >= 2, got {capacity}")
        self.name = name
        self.kind = kind
        self.capacity = capacity
        self._buf: list[tuple[float, float]] = []
        self._next = 0  # write index once the ring is full
        self._full = False
        self.high_water = -math.inf
        self.low_water = math.inf
        self.total_points = 0

    def append(self, t: float, value: float) -> None:
        value = float(value)
        self.total_points += 1
        if value > self.high_water:
            self.high_water = value
        if value < self.low_water:
            self.low_water = value
        if not self._full:
            self._buf.append((t, value))
            if len(self._buf) == self.capacity:
                self._full = True
            return
        self._buf[self._next] = (t, value)
        self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._buf)

    def points(self) -> list[tuple[float, float]]:
        """Retained samples in chronological order."""
        if not self._full or self._next == 0:
            return list(self._buf)
        return self._buf[self._next:] + self._buf[: self._next]

    def latest(self) -> tuple[float, float] | None:
        if not self._buf:
            return None
        idx = (self._next - 1) % len(self._buf) if self._full else len(self._buf) - 1
        return self._buf[idx]

    def window(self, t_lo: float, t_hi: float = math.inf) -> list[tuple[float, float]]:
        """Retained samples with ``t_lo <= t <= t_hi``."""
        return [(t, v) for t, v in self.points() if t_lo <= t <= t_hi]

    # -- windowed aggregates -----------------------------------------------------

    def window_stats(self, t_lo: float, t_hi: float = math.inf) -> dict[str, float]:
        """Aggregates over one window: count, extrema, mean, p50/p95, rate.

        ``rate`` is the first derivative over the window endpoints — the
        natural reading of a cumulative series (events/s, bytes/s, stalled
        seconds per second); for level series it is the net drift rate.
        """
        pts = self.window(t_lo, t_hi)
        if not pts:
            return {"n": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "first": 0.0, "last": 0.0,
                    "delta": 0.0, "rate": 0.0}
        values = sorted(v for _t, v in pts)
        n = len(values)
        t_first, v_first = pts[0]
        t_last, v_last = pts[-1]
        dt = t_last - t_first
        delta = v_last - v_first
        return {
            "n": float(n),
            "min": values[0],
            "max": values[-1],
            "mean": sum(values) / n,
            "p50": values[max(0, math.ceil(0.50 * n) - 1)],
            "p95": values[max(0, math.ceil(0.95 * n) - 1)],
            "first": v_first,
            "last": v_last,
            "delta": delta,
            "rate": delta / dt if dt > 0 else 0.0,
        }

    def slope(self, t_lo: float, t_hi: float = math.inf) -> float:
        """Least-squares trend (value units per second) over the window."""
        pts = self.window(t_lo, t_hi)
        if len(pts) < 2:
            return 0.0
        n = len(pts)
        mean_t = sum(t for t, _v in pts) / n
        mean_v = sum(v for _t, v in pts) / n
        num = sum((t - mean_t) * (v - mean_v) for t, v in pts)
        den = sum((t - mean_t) ** 2 for t, _v in pts)
        return num / den if den > 0 else 0.0

    def decimated(self, max_points: int = 16) -> list[tuple[float, float]]:
        """At most ``max_points`` evenly spaced retained samples (for tables)."""
        if max_points < 1:
            raise ConfigError(f"max_points must be >= 1, got {max_points}")
        pts = self.points()
        if len(pts) <= max_points:
            return pts
        stride = len(pts) / max_points
        picked = [pts[int(i * stride)] for i in range(max_points)]
        picked[-1] = pts[-1]  # always keep the newest sample
        return picked


class Timeline:
    """Periodic snapshots of every instrument into bounded ring series.

    Series keys: ``counter.<name>`` (cumulative), ``gauge.<name>`` (level,
    summed across tracks so multi-rank gauges read as totals) and
    ``hist.<name>.count`` / ``hist.<name>.total`` (cumulative).
    """

    def __init__(self, telemetry: "Telemetry", resolution: float = 0.05,
                 capacity: int = 256):
        if resolution <= 0:
            raise ConfigError(f"timeline resolution must be > 0, got {resolution}")
        self.telemetry = telemetry
        self.resolution = resolution
        self.capacity = capacity
        self.series: dict[str, TimeSeries] = {}
        self.samples_taken = 0
        self._last_sample = -math.inf

    def _series(self, key: str, kind: str) -> TimeSeries:
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = TimeSeries(key, kind, self.capacity)
        return series

    def get(self, key: str) -> TimeSeries | None:
        return self.series.get(key)

    def sample(self, now: float | None = None, force: bool = False) -> bool:
        """Snapshot all instruments; returns False when inside ``resolution``
        of the previous sample (unless forced)."""
        tel = self.telemetry
        if now is None:
            now = tel.now()
        # A tiny slack absorbs float drift of periodic callbacks.
        if not force and now - self._last_sample < self.resolution * (1 - 1e-9):
            return False
        self._last_sample = now
        self.samples_taken += 1
        for name, counter in tel.counters.items():
            self._series(f"counter.{name}", CUMULATIVE).append(now, counter.value)
        by_name: dict[str, float] = {}
        for gauge in tel.gauges.values():
            by_name[gauge.name] = by_name.get(gauge.name, 0.0) + gauge.value
        for name, total in by_name.items():
            self._series(f"gauge.{name}", LEVEL).append(now, total)
        for name, hist in tel.histograms.items():
            self._series(f"hist.{name}.count", CUMULATIVE).append(now, hist.count)
            self._series(f"hist.{name}.total", CUMULATIVE).append(now, hist.total)
        return True

    # -- presentation -------------------------------------------------------------

    def summary(self, window: float | None = None) -> dict[str, dict[str, float]]:
        """Per-series last/high-water plus rate over the trailing window."""
        out: dict[str, dict[str, float]] = {}
        for key in sorted(self.series):
            series = self.series[key]
            latest = series.latest()
            if latest is None:
                continue
            t_last, v_last = latest
            t_lo = t_last - window if window is not None else -math.inf
            stats = series.window_stats(t_lo)
            out[key] = {
                "last": v_last,
                "high_water": series.high_water,
                "rate": stats["rate"],
                "mean": stats["mean"],
                "p95": stats["p95"],
                "points": float(series.total_points),
            }
        return out
