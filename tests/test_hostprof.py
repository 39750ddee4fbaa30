"""The host clock: injection, the environment header, deterministic probes."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.blackboard import Blackboard
from repro.telemetry import Telemetry
from repro.telemetry.hostprof import (
    fake_host_clock,
    host_environment,
    host_now,
    set_host_clock,
)


class ManualClock:
    """A host clock the test advances by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- the injectable host clock --------------------------------------------------------


class TestHostClock:
    def test_fake_clock_scopes_and_restores(self):
        clock = ManualClock()
        clock.t = 41.5
        with fake_host_clock(clock):
            assert host_now() == 41.5
            clock.advance(0.5)
            assert host_now() == 42.0
        # Restored: back on perf_counter, which moves.
        a, b = host_now(), host_now()
        assert b >= a

    def test_set_host_clock_returns_previous_and_none_resets(self):
        clock = ManualClock()
        prev = set_host_clock(clock)
        try:
            assert host_now() == 0.0
        finally:
            set_host_clock(None)
        assert prev is not clock
        assert host_now() != pytest.approx(0.0, abs=0.0) or host_now() > 0

    def test_environment_header_keys(self):
        env = host_environment()
        assert set(env) == {
            "python", "implementation", "platform", "machine", "cpu_count",
        }
        assert env["cpu_count"] >= 1


# -- probes that read the host clock --------------------------------------------------


class TestObservationOnly:
    def test_blackboard_probe_is_fake_clock_deterministic(self):
        # Job CPU time in the telemetry histograms is read off host_now(),
        # so a fake clock makes it exact.
        clock = ManualClock()
        with fake_host_clock(clock):
            board = Blackboard(telemetry=Telemetry(clock=lambda: 0.0))
            tid = board.register_type("x")
            board.register_ks("work", [tid], lambda _b, _entries: clock.advance(0.25))
            board.submit(tid, b"0123456789")
            assert board.run_until_idle() == 1
        cpu = board.telemetry.histograms["blackboard.job_cpu_s"]
        assert cpu.count == 1 and cpu.total == 0.25
        assert board.telemetry.histograms["blackboard.ks_cpu_s.work"].total == 0.25


class TestTracedEntryPoints:
    """Host time is attributed from outside by ``perfbench/tracer.py``, which
    wraps layer entry points by name; renaming one would break the split."""

    ENTRY_POINTS = {
        "Kernel.run", "Kernel.timeout",
        "VMPIStream.write", "VMPIStream.read", "VMPIStream.open_map", "VMPIStream.close",
        "CodecChain.encode", "CodecChain.decode",
        "build_frame", "Frame.to_bytes", "parse_frame",
        "Blackboard.submit", "Blackboard.execute", "Blackboard.run_until_idle",
        "AnalyzerEngine.ingest",
    }

    def test_tracer_wraps_and_restores_every_entry_point(self, monkeypatch):
        from repro.simt.kernel import Kernel

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        monkeypatch.delitem(sys.modules, "tracer", raising=False)
        import tracer

        original = Kernel.__dict__["run"]
        t = tracer.Tracer()
        try:
            t.install()
            assert self.ENTRY_POINTS <= set(t.calls)
            assert Kernel.__dict__["run"] is not original
        finally:
            t.uninstall()
        assert Kernel.__dict__["run"] is original
        # Read, not wrapped: the tracer counts simt.events from it.
        assert Kernel().events_dispatched == 0

