"""Application-level alert detection: waiting, message-rate and silence."""

import numpy as np

from repro.analysis.alerts import AlertConfig, AlertMonitor
from repro.instrument.events import CALL_IDS, EVENT_DTYPE


def _events(rows):
    """rows: (call_name, t_start, t_end) tuples -> structured event array."""
    out = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for i, (call, t0, t1) in enumerate(rows):
        out[i]["call"] = CALL_IDS[call]
        out[i]["t_start"] = t0
        out[i]["t_end"] = t1
    return out


class TestAlertMonitorRouting:
    def test_finalize_raises_silence(self):
        monitor = AlertMonitor("A", 2, config=AlertConfig(silence_threshold=1.0))
        monitor.update(0, _events([("MPI_Send", 0.0, 0.01)]))
        raised = monitor.finalize(t_end=5.0)
        assert [a.kind for a in raised] == ["silence"]
        assert monitor.by_kind()["silence"] == 1

    def test_update_routes_through_router(self):
        # The monitor is its own router: update() returns what it raised and
        # records it in the monitor's history and per-kind counts.
        monitor = AlertMonitor(
            "A", 4, config=AlertConfig(wait_threshold=0.5, window=0.1)
        )
        # One rank spends an entire 0.1s window inside MPI_Recv.
        raised = monitor.update(1, _events([("MPI_Recv", 0.0, 0.1)]))
        assert [a.kind for a in raised] == ["waiting"]
        assert monitor.alerts == raised
        assert monitor.by_kind() == {"waiting": 1}

    def test_routerless_monitor_still_records(self):
        monitor = AlertMonitor(
            "A", 4, config=AlertConfig(wait_threshold=0.5, window=0.1)
        )
        raised = monitor.update(1, _events([("MPI_Recv", 0.0, 0.1)]))
        assert monitor.alerts == raised
