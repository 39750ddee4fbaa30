"""Ring-buffer time series and periodic instrument snapshots."""

import math

import pytest

from repro.errors import ConfigError
from repro.telemetry import Telemetry
from repro.telemetry.timeline import CUMULATIVE, LEVEL, Timeline, TimeSeries


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def tel(clock):
    return Telemetry(clock=clock)


class TestTimeSeries:
    def test_rejects_bad_kind_and_capacity(self):
        with pytest.raises(ConfigError):
            TimeSeries("x", kind="weird")
        with pytest.raises(ConfigError):
            TimeSeries("x", capacity=1)

    def test_append_and_points_in_order(self):
        ts = TimeSeries("x", LEVEL, capacity=8)
        for i in range(5):
            ts.append(float(i), float(i * 10))
        assert len(ts) == 5
        assert ts.points() == [(float(i), float(i * 10)) for i in range(5)]
        assert ts.latest() == (4.0, 40.0)

    def test_ring_wraps_and_stays_bounded(self):
        ts = TimeSeries("x", CUMULATIVE, capacity=4)
        for i in range(10):
            ts.append(float(i), float(i))
        assert len(ts) == 4
        # Oldest retained samples are dropped, chronology is preserved.
        assert ts.points() == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]
        assert ts.latest() == (9.0, 9.0)
        assert ts.total_points == 10

    def test_watermarks_survive_eviction(self):
        ts = TimeSeries("x", LEVEL, capacity=2)
        ts.append(0.0, 100.0)
        ts.append(1.0, 1.0)
        ts.append(2.0, 2.0)  # evicts the 100.0 sample
        assert ts.high_water == 100.0
        assert ts.low_water == 1.0

    def test_window_filters_by_time(self):
        ts = TimeSeries("x", LEVEL, capacity=16)
        for i in range(10):
            ts.append(float(i), float(i))
        assert ts.window(3.0, 6.0) == [(3.0, 3.0), (4.0, 4.0), (5.0, 5.0), (6.0, 6.0)]
        assert ts.window(100.0) == []

    def test_window_stats_empty(self):
        ts = TimeSeries("x", LEVEL)
        stats = ts.window_stats(0.0)
        assert stats["n"] == 0
        assert stats["rate"] == 0.0

    def test_window_stats_rate_differentiates_cumulative(self):
        ts = TimeSeries("x", CUMULATIVE, capacity=16)
        # 100 units per second of growth.
        for i in range(5):
            ts.append(i * 0.1, i * 10.0)
        stats = ts.window_stats(0.0)
        assert stats["n"] == 5
        assert stats["first"] == 0.0
        assert stats["last"] == 40.0
        assert stats["delta"] == 40.0
        assert stats["rate"] == pytest.approx(100.0)
        assert stats["mean"] == pytest.approx(20.0)
        assert stats["min"] == 0.0 and stats["max"] == 40.0

    def test_window_stats_percentiles(self):
        ts = TimeSeries("x", LEVEL, capacity=128)
        for i in range(100):
            ts.append(float(i), float(i + 1))  # values 1..100
        stats = ts.window_stats(-math.inf)
        assert stats["p50"] == 50.0
        assert stats["p95"] == 95.0

    def test_slope_least_squares(self):
        ts = TimeSeries("x", LEVEL, capacity=16)
        for i in range(8):
            ts.append(float(i), 3.0 * i + 1.0)
        assert ts.slope(-math.inf) == pytest.approx(3.0)
        flat = TimeSeries("y", LEVEL)
        flat.append(0.0, 5.0)
        assert flat.slope(-math.inf) == 0.0  # fewer than 2 points

    def test_decimated_keeps_newest(self):
        ts = TimeSeries("x", LEVEL, capacity=128)
        for i in range(100):
            ts.append(float(i), float(i))
        picked = ts.decimated(8)
        assert len(picked) == 8
        assert picked[-1] == (99.0, 99.0)
        assert picked == sorted(picked)
        with pytest.raises(ConfigError):
            ts.decimated(0)


class TestTimeline:
    def test_rejects_bad_resolution(self, tel):
        with pytest.raises(ConfigError):
            Timeline(tel, resolution=0.0)

    def test_sample_respects_resolution(self, tel, clock):
        tl = Timeline(tel, resolution=0.1)
        tel.counter("c").inc()
        assert tl.sample() is True
        assert tl.sample() is False  # same instant, within resolution
        clock.advance(0.05)
        assert tl.sample() is False
        clock.advance(0.05)
        assert tl.sample() is True
        assert tl.samples_taken == 2

    def test_force_overrides_resolution(self, tel):
        tl = Timeline(tel, resolution=10.0)
        assert tl.sample(force=True)
        assert tl.sample(force=True)
        assert tl.samples_taken == 2

    def test_series_keys_and_kinds(self, tel, clock):
        tel.counter("kernel.events").inc(7)
        tel.gauge("depth", pid=1).set(3)
        tel.gauge("depth", pid=2).set(4)
        tel.histogram("lat").observe(0.5)
        tl = Timeline(tel, resolution=0.01)
        tl.sample()
        assert tl.get("counter.kernel.events").kind == CUMULATIVE
        assert tl.get("gauge.depth").kind == LEVEL
        assert tl.get("hist.lat.count").kind == CUMULATIVE
        assert tl.get("hist.lat.total").kind == CUMULATIVE
        # Multi-track gauges are summed into one total series.
        assert tl.get("gauge.depth").latest()[1] == 7.0
        assert tl.get("counter.kernel.events").latest()[1] == 7.0
        assert tl.get("missing") is None

    def test_summary_reports_rates(self, tel, clock):
        ctr = tel.counter("bytes")
        tl = Timeline(tel, resolution=0.01)
        for _ in range(5):
            ctr.inc(100)
            tl.sample()
            clock.advance(0.01)
        summary = tl.summary()
        assert summary["counter.bytes"]["last"] == 500.0
        assert summary["counter.bytes"]["high_water"] == 500.0
        assert summary["counter.bytes"]["rate"] == pytest.approx(10000.0)


class TestWindowEdgeCases:
    """Windowing corners the POP-metrics engine leans on."""

    def test_empty_window_between_samples(self):
        ts = TimeSeries("x", CUMULATIVE, capacity=8)
        ts.append(0.0, 1.0)
        ts.append(10.0, 2.0)
        stats = ts.window_stats(3.0, 7.0)  # a gap with no samples at all
        assert stats["n"] == 0
        assert stats["rate"] == 0.0
        assert stats["delta"] == 0.0
        assert ts.window(3.0, 7.0) == []

    def test_single_sample_percentiles(self):
        ts = TimeSeries("x", LEVEL, capacity=8)
        ts.append(1.0, 42.0)
        stats = ts.window_stats(0.0, 2.0)
        assert stats["n"] == 1
        assert stats["p50"] == 42.0
        assert stats["p95"] == 42.0
        assert stats["min"] == stats["max"] == stats["mean"] == 42.0
        assert stats["rate"] == 0.0  # dt == 0 must not divide by zero

    def test_slope_on_constant_series_is_zero(self):
        ts = TimeSeries("x", LEVEL, capacity=32)
        for i in range(10):
            ts.append(float(i), 7.5)
        assert ts.slope(-math.inf) == 0.0
        # Constant *time* (all samples at one instant) must not blow up
        # either: the denominator degenerates to zero.
        stacked = TimeSeries("y", LEVEL, capacity=8)
        for value in (1.0, 2.0, 3.0):
            stacked.append(5.0, value)
        assert stacked.slope(-math.inf) == 0.0

    def test_wraparound_during_open_window(self):
        # The ring evicts the oldest samples while a window is still open:
        # stats must reflect only retained points, in chronological order.
        ts = TimeSeries("x", CUMULATIVE, capacity=8)
        for i in range(20):
            ts.append(float(i), float(i) * 10.0)
        pts = ts.window(-math.inf)
        assert len(pts) == 8  # bounded by capacity
        assert pts == sorted(pts)  # chronological despite the wrap
        assert pts[0] == (12.0, 120.0)  # oldest retained, not t=0
        stats = ts.window_stats(-math.inf)
        assert stats["n"] == 8
        assert stats["first"] == 120.0
        assert stats["last"] == 190.0
        assert stats["rate"] == pytest.approx(10.0)
        # Watermarks still remember evicted extremes.
        assert ts.low_water == 0.0
        assert ts.total_points == 20
