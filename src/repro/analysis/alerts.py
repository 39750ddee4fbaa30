"""Real-time performance alerts — the paper's "real-time" module family.

Section VI mentions modules "performing real-time performance analysis" as
an area of interest.  This module watches the event stream *as it arrives*
and raises alerts the moment a rank crosses a behavioural threshold —
something a post-mortem tool cannot do by construction, and therefore a
good demonstration of what online coupling buys.

Detectors:

* **waiting-fraction** — a rank spends more than ``wait_threshold`` of a
  sliding window inside blocking calls (late-sender symptom);
* **message-rate** — a rank emits more than ``rate_threshold`` p2p messages
  per second of simulated time (runaway communication);
* **silence** — a previously chatty rank produced no events for more than
  ``silence_threshold`` seconds (hang symptom; evaluated on closing).

Raised alerts accumulate on :attr:`AlertMonitor.alerts`; the analysis
engine merges the per-level monitors up the reduction tree.  The
measurement pipeline's own alerts are a separate plane
(:class:`~repro.telemetry.monitor.HealthMonitor`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.instrument.events import CALL_IDS, P2P_SEND_CALLS, WAIT_CALLS

_BLOCKING = np.array(sorted(set(WAIT_CALLS) | {CALL_IDS["MPI_Recv"]}), dtype="<u2")
_SENDS = np.array(sorted(P2P_SEND_CALLS), dtype="<u2")


@dataclass(frozen=True)
class Alert:
    """One raised alert."""

    kind: str  # "waiting" | "message_rate" | "silence"
    app: str
    rank: int
    t_detect: float
    value: float
    threshold: float

    def describe(self) -> str:
        return (
            f"[{self.t_detect:.6f}s] {self.app} rank {self.rank}: "
            f"{self.kind} = {self.value:.3g} exceeds {self.threshold:.3g}"
        )


@dataclass
class AlertConfig:
    wait_threshold: float = 0.6  # fraction of window inside blocking calls
    rate_threshold: float = 1e6  # p2p sends per second
    silence_threshold: float = 5.0  # seconds without events
    window: float = 0.05  # sliding window length, seconds

    def __post_init__(self) -> None:
        if not (0 < self.wait_threshold <= 1):
            raise ConfigError("wait_threshold must be in (0, 1]")
        if self.rate_threshold <= 0 or self.silence_threshold <= 0:
            raise ConfigError("thresholds must be positive")
        if self.window <= 0:
            raise ConfigError("window must be positive")


class AlertMonitor:
    """Mergeable online alert detector (one per application level)."""

    def __init__(
        self,
        app: str,
        app_size: int,
        config: AlertConfig | None = None,
    ):
        if app_size <= 0:
            raise ReproError(f"app_size must be > 0, got {app_size}")
        self.app = app
        self.app_size = app_size
        self.config = config or AlertConfig()
        self.alerts: list[Alert] = []
        self._last_event = np.zeros(app_size)
        self._seen = np.zeros(app_size, dtype=bool)
        # Per (rank, kind) dedup so one condition raises once per window.
        self._raised_until: dict[tuple[int, str], float] = {}

    # -- online path -----------------------------------------------------------------

    def update(self, rank: int, events: np.ndarray) -> list[Alert]:
        """Inspect one batch; returns alerts raised by this batch."""
        if not (0 <= rank < self.app_size):
            raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
        if len(events) == 0:
            return []
        new: list[Alert] = []
        cfg = self.config
        t_lo = float(events["t_start"].min())
        t_hi = float(events["t_end"].max())
        self._seen[rank] = True
        self._last_event[rank] = max(self._last_event[rank], t_hi)
        span = max(t_hi - t_lo, 1e-12)

        durations = events["t_end"] - events["t_start"]
        blocking = float(durations[np.isin(events["call"], _BLOCKING)].sum())
        window = max(span, cfg.window)
        wait_fraction = blocking / window
        if wait_fraction > cfg.wait_threshold:
            new += self._raise("waiting", rank, t_hi, wait_fraction, cfg.wait_threshold)

        sends = int(np.isin(events["call"], _SENDS).sum())
        rate = sends / window
        if rate > cfg.rate_threshold:
            new += self._raise("message_rate", rank, t_hi, rate, cfg.rate_threshold)

        self.alerts.extend(new)
        return new

    def finalize(self, t_end: float) -> list[Alert]:
        """Closing pass: silence detection against the app end time."""
        new: list[Alert] = []
        for rank in range(self.app_size):
            if not self._seen[rank]:
                continue
            silence = t_end - self._last_event[rank]
            if silence > self.config.silence_threshold:
                new += self._raise(
                    "silence", rank, t_end, silence, self.config.silence_threshold
                )
        self.alerts.extend(new)
        return new

    def _raise(
        self, kind: str, rank: int, t: float, value: float, threshold: float
    ) -> list[Alert]:
        key = (rank, kind)
        if self._raised_until.get(key, -1.0) >= t:
            return []
        self._raised_until[key] = t + self.config.window
        return [Alert(kind=kind, app=self.app, rank=rank, t_detect=t,
                      value=value, threshold=threshold)]

    # -- reduction --------------------------------------------------------------------

    def merge(self, other: "AlertMonitor") -> None:
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging alert monitors of different applications")
        self.alerts.extend(other.alerts)
        np.maximum(self._last_event, other._last_event, out=self._last_event)
        self._seen |= other._seen

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for alert in self.alerts:
            out[alert.kind] = out.get(alert.kind, 0) + 1
        return out
