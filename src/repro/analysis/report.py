"""Profiling reports: one chapter per instrumented application (paper IV-D).

The paper emits a 20-70 page LaTeX document; we render Markdown with the
same structure: per application a summary, the MPI interface profile, the
topological module's matrices/graph statistics, density-map extracts and the
wait-state summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.density import DensityMaps
from repro.analysis.profiler import MPIProfile
from repro.analysis.topology import CommMatrix
from repro.analysis.waitstate import WaitState
from repro.util.units import fmt_bw, fmt_bytes, fmt_time


@dataclass
class ApplicationReport:
    """One report chapter."""

    app: str
    app_size: int
    profile: Optional[MPIProfile] = None
    topology: Optional[CommMatrix] = None
    density: Optional[DensityMaps] = None
    waitstate: Optional[WaitState] = None
    alerts: object = None  # AlertMonitor (extension module), if enabled
    otf2proxy: object = None  # OTF2Proxy (extension module), if enabled
    latesender: object = None  # LateSenderAnalysis (extension), if enabled

    def render(self, verbosity: int = 1) -> str:
        lines = [f"## Application: {self.app} ({self.app_size} ranks)", ""]
        if self.profile is not None:
            lines += self._render_profile(verbosity)
        if self.topology is not None:
            lines += self._render_topology(verbosity)
        if self.density is not None:
            lines += self._render_density(verbosity)
        if self.waitstate is not None:
            lines += self._render_waitstate()
        if self.alerts is not None:
            lines += self._render_alerts()
        if self.otf2proxy is not None:
            lines += self._render_proxy()
        if self.latesender is not None:
            lines += self._render_latesender()
        return "\n".join(lines)

    def _render_profile(self, verbosity: int) -> list[str]:
        p = self.profile
        out = ["### MPI profile", ""]
        out.append(f"- events analysed: {p.events_total}")
        out.append(f"- wall-time estimate: {fmt_time(p.walltime_estimate)}")
        out.append(f"- time inside MPI: {fmt_time(p.mpi_time_total)}")
        out.append(f"- instrumentation bandwidth Bi: {fmt_bw(p.instrumentation_bandwidth())}")
        out.append("")
        out.append("```")
        out.append(p.table().render())
        out.append("```")
        out.append("")
        return out

    def _render_topology(self, verbosity: int) -> list[str]:
        t = self.topology
        hits, size, time = t.totals()
        out = ["### Point-to-point topology", ""]
        out.append(f"- messages: {int(hits)}")
        out.append(f"- total size: {fmt_bytes(size)}")
        out.append(f"- total time: {fmt_time(time)}")
        out.append(f"- communicating pairs: {len(t.cells)}")
        degrees = t.degree_histogram()
        deg_txt = ", ".join(f"{d} peers x{c}" for d, c in sorted(degrees.items()))
        out.append(f"- out-degree histogram: {deg_txt}")
        top = t.top_pairs("size", k=5)
        if top:
            out.append("- heaviest pairs (size): " + ", ".join(
                f"{s}->{d} {fmt_bytes(w)}" for s, d, w in top
            ))
        if verbosity >= 2 and t.app_size <= 64:
            out.append("")
            out.append("```dot")
            out.append(t.to_dot("size"))
            out.append("```")
        out.append("")
        return out

    def _render_density(self, verbosity: int) -> list[str]:
        d = self.density
        out = ["### Density maps", ""]
        for call in d.calls_seen():
            imb = d.imbalance(call, "time")
            vec = d.map_for(call, "hits")
            out.append(
                f"- {call}: hits/rank [{vec.min():.0f}, {vec.max():.0f}], "
                f"time imbalance {imb:.2f}"
            )
        if verbosity >= 2:
            for call in ("MPI_Send", "MPI_Waitall"):
                if call in d.calls_seen():
                    out.append("")
                    out.append("```")
                    out.append(d.render_grid(call, "time"))
                    out.append("```")
        out.append("")
        return out

    def _render_alerts(self) -> list[str]:
        out = ["### Real-time alerts", ""]
        if not self.alerts.alerts:
            out.append("- none raised")
        else:
            kinds = self.alerts.by_kind()
            out.append(
                "- raised: " + ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
            )
            for alert in self.alerts.alerts[:10]:
                out.append(f"  - {alert.describe()}")
        out.append("")
        return out

    def _render_proxy(self) -> list[str]:
        p = self.otf2proxy
        out = ["### Selective trace (OTF2 proxy)", ""]
        out.append(f"- events selected: {p.events_selected} of {p.events_seen} "
                   f"(selectivity {p.selectivity:.3f})")
        out.append(f"- trace size: {fmt_bytes(p.trace_bytes())}")
        out.append("")
        return out

    def _render_latesender(self) -> list[str]:
        s = self.latesender.summary()
        out = ["### Late-sender analysis (distributed)", ""]
        out.append(f"- matched send/receive pairs: {int(s['matched_pairs'])}")
        out.append(
            f"- unmatched: {int(s['unmatched_sends'])} sends, "
            f"{int(s['unmatched_recvs'])} receives"
        )
        out.append(f"- total lateness: {fmt_time(s['late_time_total'])}")
        worst = self.latesender.worst_receivers(3)
        if worst:
            out.append(
                "- worst receivers: "
                + ", ".join(f"rank {r} ({fmt_time(t)})" for r, t in worst)
            )
        out.append("")
        return out

    def _render_waitstate(self) -> list[str]:
        w = self.waitstate
        s = w.summary()
        out = ["### Wait-state analysis (preliminary)", ""]
        out.append(f"- total waiting time: {fmt_time(s['wait_time_total'])}")
        out.append(f"- mean waiting fraction: {s['wait_fraction_mean']:.3f}")
        out.append(f"- max waiting fraction: {s['wait_fraction_max']:.3f}")
        out.append(f"- collective time: {fmt_time(s['collective_time_total'])}")
        out.append(f"- late ranks (>1.5x mean wait): {int(s['late_rank_count'])}")
        out.append("")
        return out


@dataclass
class ProfileReport:
    """The full multi-application report."""

    chapters: list[ApplicationReport] = field(default_factory=list)
    #: Self-telemetry summary (``Telemetry.summary()``) when the measurement
    #: pipeline itself ran instrumented; None otherwise.
    telemetry: Optional[dict] = None
    #: Online health-monitor summary (``HealthMonitor.summary()``) when a
    #: monitor was attached to the run; None otherwise.
    health: Optional[dict] = None
    #: Flow-provenance summary (``FlowRegistry.summary()``) when causal
    #: pack tracing was enabled for the run; None otherwise.
    flows: Optional[dict] = None
    #: Event-reduction summary (chain spec, wire vs content bytes, codec
    #: CPU) when a reduction chain was active; None for identity runs.
    reduction: Optional[dict] = None
    #: Time-resolved POP efficiency summary (``PopMetricsEngine.summary()``)
    #: when online efficiency metrics were enabled; None otherwise.
    efficiency: Optional[dict] = None
    #: Adaptive-steering summary (``SteeringController.summary()``) when the
    #: control loop was enabled for the run; None otherwise.
    steering: Optional[dict] = None
    #: Unified observability-bus summary (``ObservabilityBus.summary()``)
    #: when the bus was enabled for the run; None otherwise.
    obs: Optional[dict] = None

    def chapter(self, app: str) -> ApplicationReport:
        for ch in self.chapters:
            if ch.app == app:
                return ch
        raise KeyError(f"no report chapter for application {app!r}")

    def render(self, verbosity: int = 1) -> str:
        header = [
            "# Online profiling report",
            "",
            f"Applications profiled concurrently: {len(self.chapters)}",
            "",
        ]
        parts = header + [ch.render(verbosity) for ch in self.chapters]
        if self.telemetry:
            parts.append(self._render_telemetry())
        if self.health:
            parts.append(self._render_health())
        if self.flows:
            parts.append(self._render_flows())
        if self.reduction:
            parts.append(self._render_reduction())
        if self.efficiency:
            parts.append(self._render_efficiency())
        if self.steering:
            parts.append(self._render_steering())
        if self.obs:
            parts.append(self._render_obs())
        return "\n".join(parts)

    def _render_telemetry(self) -> str:
        """The measurement pipeline's own vitals (paper-spirit: online too)."""
        s = self.telemetry
        out = ["## Self-telemetry (measurement pipeline)", ""]
        head = s.get("headline", {})
        out.append(f"- kernel events dispatched: {head.get('events_dispatched', 0)}")
        out.append(f"- bytes streamed: {fmt_bytes(head.get('bytes_streamed', 0))}")
        utilization = head.get("worker_utilization")
        if utilization is not None:
            out.append(f"- blackboard worker utilization: {utilization:.3f}")
        out.append(f"- spans recorded: {head.get('spans_recorded', 0)}")
        spans = s.get("spans", {})
        if spans:
            top = sorted(spans.items(), key=lambda kv: -kv[1]["total_s"])[:6]
            out.append("- busiest spans: " + ", ".join(
                f"{name} x{int(v['count'])} ({fmt_time(v['total_s'])})"
                for name, v in top
            ))
        for name, h in sorted(s.get("histograms", {}).items()):
            if h.get("count"):
                out.append(
                    f"- {name}: n={h['count']} mean={h['mean']:.3g} "
                    f"p95={h['p95']:.3g} max={h['max']:.3g}"
                )
        for name, g in sorted(s.get("gauges", {}).items()):
            out.append(
                f"- {name}: last={g['last']:.0f} peak={g['peak']:.0f} "
                f"({int(g['tracks'])} tracks)"
            )
        out.append("")
        return "\n".join(out)

    def _render_health(self) -> str:
        """Online health monitor findings and per-window timelines."""
        from repro.util.tables import Table

        h = self.health
        out = ["## Health (online monitor)", ""]
        out.append(
            f"- ticks: {h.get('ticks', 0)} at {h.get('interval_s', 0):.3g}s "
            f"resolution, {h.get('window_s', 0):.3g}s detector window"
        )
        out.append(f"- timeline series tracked: {h.get('series_tracked', 0)}")
        published = h.get("published_to_blackboard", 0)
        if published:
            out.append(f"- alerts analyzed by the blackboard: {published}")
        alerts = h.get("alerts", [])
        if not alerts:
            out.append("- alerts raised: none")
        else:
            kinds = h.get("by_kind", {})
            out.append(
                "- alerts raised: "
                + ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
            )
            for alert in alerts[:12]:
                detail = alert.get("detail") or {}
                extra = (
                    " (" + ", ".join(f"{k}={v}" for k, v in sorted(detail.items())) + ")"
                    if detail
                    else ""
                )
                out.append(
                    f"  - [{alert['t_detect']:.6f}s] {alert['severity'].upper()} "
                    f"{alert['kind']}: {alert['value']:.3g} vs "
                    f"{alert['threshold']:.3g}{extra}"
                )
            if len(alerts) > 12:
                out.append(f"  - ... and {len(alerts) - 12} more")
            unresolved = h.get("unresolved", [])
            if unresolved:
                out.append("- still firing at shutdown: " + ", ".join(unresolved))
        series = h.get("series", {})
        if series:
            out.append("")
            table = Table(
                ["series", "last", "high_water", "rate_per_s"],
                title="Watched timelines (trailing window)",
            )
            for name, s in sorted(series.items()):
                table.add_row(name, s["last"], s["high_water"], s["rate"])
            out.append("```")
            out.append(table.render())
            out.append("```")
        out.append("")
        return "\n".join(out)

    def _render_flows(self) -> str:
        """Per-stage latency waterfall of the measurement pipeline itself."""
        from repro.util.tables import Table

        f = self.flows
        out = ["## Pipeline latency (flow provenance)", ""]
        out.append(
            f"- flows traced: {f.get('flows_traced', 0)} "
            f"(sample rate {f.get('sample_rate', 1.0):.3g}), "
            f"completed: {f.get('flows_completed', 0)}, "
            f"dropped: {f.get('flows_dropped', 0)}"
        )
        losses = f.get("losses") or {}
        if losses:
            out.append(
                "- losses by cause: "
                + ", ".join(f"{k} x{n}" for k, n in sorted(losses.items()))
            )
        retry = f.get("retry_delay_s", 0.0)
        if retry:
            out.append(f"- backpressure retry delay attributed: {fmt_time(retry)}")
        stages = f.get("stages") or {}
        end_to_end = f.get("end_to_end")
        if stages:
            table = Table(
                ["stage", "count", "p50", "p95", "mean", "total"],
                title="Per-stage latency",
            )
            for stage, s in stages.items():
                table.add_row(
                    stage, s["count"], fmt_time(s["p50_s"]), fmt_time(s["p95_s"]),
                    fmt_time(s["mean_s"]), fmt_time(s["total_s"]),
                )
            if end_to_end:
                table.add_row(
                    "end_to_end", end_to_end["count"], fmt_time(end_to_end["p50_s"]),
                    fmt_time(end_to_end["p95_s"]), fmt_time(end_to_end["mean_s"]),
                    fmt_time(end_to_end["total_s"]),
                )
            out.append("")
            out.append("```")
            out.append(table.render())
            out.append("```")
        critical = f.get("critical_path")
        if critical:
            shares = critical.get("share") or {}
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
            out.append(
                f"- critical path: flow {critical['flow_id']:#x} "
                f"end-to-end {fmt_time(critical['total_s'])}, dominated by "
                + ", ".join(f"{name} ({share:.0%})" for name, share in top)
            )
        watermarks = f.get("watermarks") or {}
        if watermarks:
            laggiest = sorted(
                watermarks.items(), key=lambda kv: -kv[1]["max_lag_s"]
            )[:4]
            out.append(
                "- laggiest writers: "
                + ", ".join(
                    f"{name} (max lag {fmt_time(w['max_lag_s'])}, "
                    f"{int(w['in_flight'])} in flight)"
                    for name, w in laggiest
                )
            )
        out.append("")
        return "\n".join(out)

    def _render_reduction(self) -> str:
        """Wire-volume savings of the event-reduction codec chain."""
        r = self.reduction
        out = ["## Reduction", ""]
        out.append(f"- chain: `{r.get('chain') or 'identity'}`")
        content = r.get("bytes_content", 0)
        wire = r.get("bytes_wire", 0)
        out.append(
            f"- stream volume: {fmt_bytes(wire)} on the wire for "
            f"{fmt_bytes(content)} of content "
            f"(ratio {r.get('ratio', 0.0):.3f})"
        )
        sampled = r.get("events_sampled_out", 0)
        if sampled:
            out.append(f"- events sampled out (exact accounting): {sampled}")
        out.append(
            f"- codec CPU charged: encode {fmt_time(r.get('encode_cpu_s', 0.0))}, "
            f"decode {fmt_time(r.get('decode_cpu_s', 0.0))}"
        )
        codecs = r.get("codecs_seen") or {}
        if codecs:
            out.append(
                "- descriptors seen at analysis: "
                + ", ".join(f"`{k}` x{n}" for k, n in sorted(codecs.items()))
            )
        out.append("")
        return "\n".join(out)

    def _render_efficiency(self) -> str:
        """Per-phase POP efficiency metrics from the online engine."""
        from repro.util.tables import Table

        e = self.efficiency
        out = ["## Efficiency timeline", ""]
        out.append(
            f"- windows closed: {e.get('windows', 0)} at "
            f"{e.get('window_s', 0):.3g}s resolution over {e.get('nranks', 0)} "
            f"rank tracks"
        )
        phases = e.get("phases", [])
        out.append(
            f"- phases detected: {len(phases)} "
            f"(change-point signal: {e.get('signal', '?')})"
        )
        eor = e.get("end_of_run", {})
        if eor:
            out.append(
                "- end of run: PE {pe:.3f} = LB {lb:.3f} x CommE {ce:.3f}, "
                "SerE {se:.3f}, instrumentation share {sh:.4f}".format(
                    pe=eor.get("parallel_efficiency", 0.0),
                    lb=eor.get("load_balance", 0.0),
                    ce=eor.get("communication_efficiency", 0.0),
                    se=eor.get("serialization_efficiency", 0.0),
                    sh=eor.get("instrumentation_share", 0.0),
                )
            )
        if phases:
            table = Table(
                ["phase", "t0_s", "t1_s", "windows", "PE", "LB", "CommE",
                 "SerE", "instr_share"],
                title="Per-phase efficiency",
            )
            for phase in phases:
                m = phase.get("metrics", {})
                table.add_row(
                    phase.get("index", 0),
                    f"{phase.get('t0', 0.0):.6f}",
                    f"{phase.get('t1', 0.0):.6f}",
                    phase.get("windows", 0),
                    f"{m.get('parallel_efficiency', 0.0):.4f}",
                    f"{m.get('load_balance', 0.0):.4f}",
                    f"{m.get('communication_efficiency', 0.0):.4f}",
                    f"{m.get('serialization_efficiency', 0.0):.4f}",
                    f"{m.get('instrumentation_share', 0.0):.5f}",
                )
            out.append("")
            out.append("```")
            out.append(table.render())
            out.append("```")
        stream = e.get("stream_last") or {}
        if stream:
            out.append(
                "- stream health (last window): "
                + ", ".join(f"{k}={v:.3g}" for k, v in sorted(stream.items()))
            )
        out.append("")
        return "\n".join(out)

    def _render_steering(self) -> str:
        """The control loop's decision journal: alert -> decision -> actuation."""
        s = self.steering
        out = ["## Steering", ""]
        policy = s.get("policy") or {}
        out.append(f"- policy: `{policy.get('name', '?')}`")
        decisions = s.get("decisions", [])
        if not decisions:
            out.append(
                f"- decisions: none ({s.get('alerts_seen', 0)} alerts observed, "
                "run untouched)"
            )
        else:
            by_action = s.get("by_action", {})
            out.append(
                "- decisions: "
                + ", ".join(f"{k} x{n}" for k, n in sorted(by_action.items()))
            )
            for d in decisions[:12]:
                detail = d.get("detail") or {}
                extra = (
                    " (" + ", ".join(f"{k}={v}" for k, v in sorted(detail.items())) + ")"
                    if detail
                    else ""
                )
                latency = ""
                before, after = d.get("latency_before_s"), d.get("latency_after_s")
                if before is not None and after is not None:
                    latency = (
                        f" [latency {fmt_time(before)} -> {fmt_time(after)}]"
                    )
                out.append(
                    f"  - [{d['t']:.6f}s] {d['action']} <- "
                    f"{d['trigger_kind']}{extra}{latency}"
                )
            if len(decisions) > 12:
                out.append(f"  - ... and {len(decisions) - 12} more")
        final = s.get("final") or {}
        if final:
            out.append(
                f"- final state: chain `{final.get('chain', 'identity')}`, "
                f"{final.get('workers', 1)} analyzer worker(s), "
                f"{final.get('rebalances', 0)} rebalance round(s)"
            )
        out.append("")
        return "\n".join(out)

    def _render_obs(self) -> str:
        """The unified record plane: what was published where, what dropped."""
        s = self.obs
        out = ["## Observability", ""]
        out.append(
            f"- records published: {s.get('published', 0)} "
            f"({s.get('rejected', 0)} rejected at publish)"
        )
        for schema, kinds in sorted((s.get("schemas") or {}).items()):
            total = sum(kinds.values())
            breakdown = ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
            out.append(f"  - `{schema}`: {total} ({breakdown})")
        for sink in s.get("sinks", []):
            line = (
                f"- sink `{sink.get('sink', '?')}`: "
                f"{sink.get('delivered', 0)} delivered, "
                f"{sink.get('dropped', 0)} dropped, "
                f"{sink.get('errors', 0)} errors"
            )
            if sink.get("path"):
                line += f" -> {sink['path']}"
            out.append(line)
        out.append("")
        return "\n".join(out)

    def __contains__(self, app: str) -> bool:
        return any(ch.app == app for ch in self.chapters)
