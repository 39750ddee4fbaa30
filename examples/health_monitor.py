#!/usr/bin/env python
"""Health-monitor tour: catch a struggling coupled run *while it runs*.

Two sessions back to back:

1. a healthy configuration — the analyzer keeps up, the monitor stays
   quiet;
2. a deliberately under-provisioned one — a single analyzer rank drowning
   under many writers, so the monitor's online detectors (stream stalls,
   blackboard backlog, load imbalance) fire mid-simulation, stamped in
   virtual time long before the run ends.

Alerts travel three ways at once: into the monitor's own history, to
every handler registered with ``monitor.subscribe`` (printed live below),
and — dogfooding the paper's architecture — as ``health_alert`` data
entries consumed by a knowledge source on the analyzer root's blackboard.

Run:  python examples/health_monitor.py
"""

from repro import CouplingSession
from repro.apps import EulerMHD
from repro.telemetry import MonitorConfig, Telemetry


def run_session(name: str, nwriters: int, analyzer_nprocs: int) -> None:
    print(f"=== {name}: {nwriters} writers -> {analyzer_nprocs} analyzer rank(s) ===")
    tel = Telemetry()
    session = CouplingSession(seed=11, telemetry=tel)
    session.add_application(EulerMHD(nwriters, grid=512, iterations=4))
    session.set_analyzer(nprocs=analyzer_nprocs)

    monitor = session.enable_monitor(config=MonitorConfig(interval=2e-4, window=1e-3))
    monitor.subscribe(lambda alert: print(f"  LIVE {alert.describe()}"))

    result = session.run()
    health = result.health
    print(f"  ticks={health['ticks']}  alerts={health['by_kind'] or 'none'}")
    print(f"  blackboard ingested {health['published_to_blackboard']} alert(s): "
          f"{result.analyzer_stats['health_ingest'] or '{}'}")
    report = result.report.render()
    if "## Health" in report:
        print()
        print(report[report.index("## Health") :])
    print()


def main() -> None:
    run_session("healthy", nwriters=8, analyzer_nprocs=4)
    run_session("undersized analyzer", nwriters=16, analyzer_nprocs=1)


if __name__ == "__main__":
    main()
