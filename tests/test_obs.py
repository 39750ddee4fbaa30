"""Unified observability bus: registry, bus fan-out, sinks, CLI, wiring."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import (
    ArchiveScan,
    FileSink,
    HEALTH_SCHEMA,
    METRICS_SCHEMA,
    ObservabilityBus,
    REGISTRY,
    STEERING_SCHEMA,
    TELEMETRY_SCHEMA,
    default_registry,
    iter_archive,
    iter_ndjson,
    make_record,
    record_time,
)
from repro.obs.__main__ import main as obs_main

pytestmark = pytest.mark.obs


def _window(t1=1.0, **extra):
    return make_record(METRICS_SCHEMA, "window", t0=t1 - 0.5, t1=t1, **extra)


class ListSink:
    """The smallest bus sink: keeps every delivered record."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)
        return True


# -- registry -----------------------------------------------------------------------


class TestRegistry:
    def test_all_four_schemas_registered(self):
        names = REGISTRY.known()
        assert set(names) == {
            TELEMETRY_SCHEMA,
            METRICS_SCHEMA,
            HEALTH_SCHEMA,
            STEERING_SCHEMA,
        }

    def test_legacy_constants_are_reexports(self):
        from repro.telemetry.export import TELEMETRY_SCHEMA as legacy_tel
        from repro.telemetry.popmetrics import METRICS_SCHEMA as legacy_metrics
        from repro.telemetry.monitor import WINDOWED_KINDS, CLEARED_SUFFIX

        assert legacy_tel == TELEMETRY_SCHEMA
        assert legacy_metrics == METRICS_SCHEMA
        for kind in WINDOWED_KINDS:
            assert kind in REGISTRY.kinds_for(HEALTH_SCHEMA)
            assert kind + CLEARED_SUFFIX in REGISTRY.kinds_for(HEALTH_SCHEMA)

    def test_unknown_schema_lists_known(self):
        with pytest.raises(ConfigError, match="repro.telemetry/1"):
            REGISTRY.get("repro.nonesuch/1")

    def test_make_record_key_order(self):
        record = make_record(METRICS_SCHEMA, "window", b=1, a=2)
        assert list(record) == ["schema", "kind", "b", "a"]

    def test_validate_rejects_wrong_shapes(self):
        with pytest.raises(ConfigError):
            REGISTRY.validate(["not", "a", "dict"])
        with pytest.raises(ConfigError):
            REGISTRY.validate({"kind": "window"})  # no schema
        with pytest.raises(ConfigError):
            REGISTRY.validate(make_record(METRICS_SCHEMA, "nonesuch"))

    def test_record_time_priority(self):
        assert record_time({"t_detect": 3.0, "t": 1.0}) == 3.0
        assert record_time({"t1": 2.0, "t0": 1.0}) == 2.0
        assert record_time({"note": "no clock"}) is None


# -- bus ----------------------------------------------------------------------------


class TestBus:
    def test_publish_counts_and_fanout(self):
        bus = ObservabilityBus()
        every, health = ListSink(), ListSink()
        bus.add_sink(every, name="all")
        bus.add_sink(health, schemas=[HEALTH_SCHEMA], name="health-only")
        bus.publish(_window())
        bus.publish(make_record(HEALTH_SCHEMA, "stream_stall", t_detect=1.0))
        assert bus.published == 2
        assert bus.count(METRICS_SCHEMA) == 1
        assert bus.count(HEALTH_SCHEMA, "stream_stall") == 1
        assert len(every.records) == 2 and len(health.records) == 1

    def test_malformed_record_rejected_at_publish(self):
        bus = ObservabilityBus()
        sink = ListSink()
        bus.add_sink(sink)
        with pytest.raises(ConfigError):
            bus.publish({"schema": "repro.nonesuch/1", "kind": "x"})
        with pytest.raises(ConfigError):
            bus.publish(make_record(METRICS_SCHEMA, "not_a_kind"))
        assert bus.rejected == 2
        assert bus.published == 0
        assert sink.records == []  # nothing malformed reached any sink

    def test_sink_exception_counted_not_raised(self):
        class Exploding:
            def emit(self, record):
                raise RuntimeError("boom")

        bus = ObservabilityBus()
        bus.add_sink(Exploding(), name="bad")
        bus.publish(_window())
        (stats,) = [b.stats() for b in bus.bindings]
        assert stats["errors"] == 1 and stats["delivered"] == 0

    def test_subscribing_unknown_schema_fails(self):
        bus = ObservabilityBus()
        with pytest.raises(ConfigError):
            bus.add_sink(ListSink(), schemas=["repro.nonesuch/1"])

    def test_close_idempotent(self, tmp_path):
        bus = ObservabilityBus()
        bus.add_sink(FileSink(str(tmp_path / "out.ndjson")))
        bus.close()
        bus.close()


# -- file sink ----------------------------------------------------------------------


class TestFileSink:
    def test_emit_after_close_raises(self, tmp_path):
        sink = FileSink(str(tmp_path / "out.ndjson"))
        sink.close()
        with pytest.raises(ConfigError):
            sink.emit(_window())


# -- torn-tail NDJSON reading -------------------------------------------------------


class TestIterNdjson:
    def test_offsets_resume(self, tmp_path):
        path = tmp_path / "s.ndjson"
        records = [_window(t1=float(i)) for i in range(3)]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        pairs = list(iter_ndjson(path, tail=True))
        assert [r for _o, r in pairs] == records
        # Resume from the middle offset: only the later records re-read.
        offset = pairs[0][0]
        rest = list(iter_ndjson(path, tail=True, start=offset))
        assert [r for _o, r in rest] == records[1:]

    def test_tail_tolerates_one_trailing_partial(self, tmp_path):
        path = tmp_path / "s.ndjson"
        whole = json.dumps(_window(t1=1.0)) + "\n"
        path.write_text(whole + '{"schema": "repro.pop-m')  # torn mid-flush
        pairs = list(iter_ndjson(path, tail=True))
        assert len(pairs) == 1
        # The writer finishes the line: resuming picks the record up.
        path.write_text(whole + json.dumps(_window(t1=2.0)) + "\n")
        resumed = list(iter_ndjson(path, tail=True, start=pairs[0][0]))
        assert [r["t1"] for _o, r in resumed] == [2.0]

    def test_newline_terminated_garbage_raises_in_both_modes(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text(json.dumps(_window()) + "\n" + "garbage\n")
        with pytest.raises(ConfigError):
            list(iter_ndjson(path, tail=True))
        with pytest.raises(ConfigError):
            list(iter_ndjson(path))

    def test_non_tail_mode_fails_on_torn_tail(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text(json.dumps(_window()))  # no trailing newline
        with pytest.raises(ConfigError, match="tail=True"):
            list(iter_ndjson(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text("")
        assert list(iter_ndjson(path)) == []
        assert list(iter_ndjson(path, tail=True)) == []


class TestMetricsStreamTail:
    """A frontend tails the POP stream with ``iter_ndjson`` and checks each
    record with ``REGISTRY.validate`` against ``repro.pop-metrics/1``."""

    @staticmethod
    def _metrics(pairs):
        for offset, record in pairs:
            if REGISTRY.validate(record).name != METRICS_SCHEMA:
                raise ConfigError(f"+{offset}: not a POP record: {record!r}")
            yield offset, record

    def test_default_mode_unchanged(self, tmp_path):
        path = tmp_path / "s.ndjson"
        records = [_window(t1=1.0), _window(t1=2.0)]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert [r for _o, r in self._metrics(iter_ndjson(path))] == records

    def test_tail_mode_resumes_across_partial(self, tmp_path):
        path = tmp_path / "s.ndjson"
        first = json.dumps(_window(t1=1.0)) + "\n"
        path.write_text(first + json.dumps(_window(t1=2.0))[:10])
        pairs = list(self._metrics(iter_ndjson(path, tail=True)))
        assert len(pairs) == 1 and pairs[0][1]["t1"] == 1.0
        path.write_text(first + json.dumps(_window(t1=2.0)) + "\n")
        resumed = list(self._metrics(iter_ndjson(path, tail=True, start=pairs[0][0])))
        assert [r["t1"] for _o, r in resumed] == [2.0]

    def test_tail_mode_still_validates_schema(self, tmp_path):
        path = tmp_path / "s.ndjson"
        for line, match in (
            ({"schema": "other/1", "kind": "window"}, "other/1"),
            ({"schema": METRICS_SCHEMA, "kind": "mystery"}, "mystery"),
            (make_record(HEALTH_SCHEMA, "stream_stall", t_detect=0.0), "not a POP"),
        ):
            path.write_text(json.dumps(line) + "\n")
            with pytest.raises(ConfigError, match=match):
                list(self._metrics(iter_ndjson(path, tail=True)))

    def test_mid_file_corruption_still_loud(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text("not json\n" + json.dumps(_window()) + "\n")
        with pytest.raises(ConfigError):
            list(self._metrics(iter_ndjson(path, tail=True)))


# -- archive query + CLI ------------------------------------------------------------


def _archive(tmp_path):
    run = tmp_path / "run1"
    run.mkdir()
    records = [
        _window(t1=1.0),
        _window(t1=2.0),
        make_record(HEALTH_SCHEMA, "stream_stall", t_detect=2.0),
        make_record(STEERING_SCHEMA, "decision", t=2.5),
    ]
    (run / "unified.ndjson").write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    (run / "foreign.jsonl").write_text(
        json.dumps({"schema": "acme.metrics/9", "kind": "blob"}) + "\n"
    )
    return run, records


class TestArchive:
    def test_iter_archive_filters_and_counts_unknown(self, tmp_path):
        run, records = _archive(tmp_path)
        scan = ArchiveScan()
        got = list(iter_archive([run], schema=METRICS_SCHEMA, scan=scan))
        assert got == records[:2]
        assert scan.unknown_schemas == {"acme.metrics/9": 1}
        assert scan.files_scanned == 2

    def test_since_boundary_inclusive(self, tmp_path):
        run, _records = _archive(tmp_path)
        got = list(iter_archive([run], since=2.0))
        assert {record_time(r) for r in got} == {2.0, 2.5}

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            list(iter_archive([tmp_path / "nope"]))

    def test_retired_hostprof_records_stay_queryable(self, tmp_path, capsys):
        # Run directories written before the host profiler was retired
        # hold repro.hostprof/1 lines next to the POP stream.  They are
        # counted as an unknown schema and skipped; the rest still reads.
        run = tmp_path / "old_run"
        run.mkdir()
        pop = [_window(t1=1.0), _window(t1=2.0)]
        legacy = [
            {"schema": "repro.hostprof/1", "kind": "meta", "elapsed_s": 0.1},
            {"schema": "repro.hostprof/1", "kind": "timer", "name": "kernel.dispatch"},
            {"schema": "repro.hostprof/1", "kind": "gc", "pauses": 0},
        ]
        lines = [pop[0], legacy[0], legacy[1], pop[1], legacy[2]]
        (run / "unified.ndjson").write_text(
            "".join(json.dumps(r) + "\n" for r in lines)
        )
        scan = ArchiveScan()
        assert list(iter_archive([run], scan=scan)) == pop
        assert scan.unknown_schemas == {"repro.hostprof/1": 3}
        assert scan.records_read == 5

        assert obs_main(["query", str(run), "--count"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "2"
        assert "3 record(s) of unknown schema 'repro.hostprof/1'" in captured.err


class TestCli:
    def test_query_counts(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        assert obs_main(["query", str(run), "--schema", METRICS_SCHEMA, "--count"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_query_since_boundary(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        assert obs_main(["query", str(run), "--since", "2.0"]) == 0
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert {record_time(r) for r in out} == {2.0, 2.5}

    def test_query_reports_foreign_schema_on_stderr(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        obs_main(["query", str(run)])
        assert "acme.metrics/9" in capsys.readouterr().err

    def test_tail_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert obs_main(["tail", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_tail_file_filters(self, tmp_path, capsys):
        run, records = _archive(tmp_path)
        assert (
            obs_main(
                ["tail", str(run / "unified.ndjson"), "--kind", "decision"]
            )
            == 0
        )
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert out == [records[3]]

    def test_tail_file_skips_foreign_schema_unless_strict(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        assert obs_main(["tail", str(run / "foreign.jsonl")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "acme.metrics/9" in captured.err
        assert obs_main(["tail", str(run / "foreign.jsonl"), "--strict"]) == 1

    def test_tail_non_file_source_is_a_clean_error(self, capsys):
        assert obs_main(["tail", "127.0.0.1:9"]) == 1
        assert "error: no such file" in capsys.readouterr().err

    def test_summary_table(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        assert obs_main(["summary", str(run)]) == 0
        out = capsys.readouterr().out
        assert METRICS_SCHEMA in out and "window" in out

    def test_schemas_lists_registry(self, capsys):
        assert obs_main(["schemas"]) == 0
        out = capsys.readouterr().out
        for name in default_registry().known():
            assert name in out

    def test_error_exit_code(self, tmp_path, capsys):
        assert obs_main(["query", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


# -- session wiring -----------------------------------------------------------------


class TestSessionWiring:
    @pytest.fixture(scope="class")
    def observed(self, tmp_path_factory):
        from repro.apps.nas import SP
        from repro.core.session import CouplingSession
        from repro.telemetry import Telemetry
        from repro.telemetry.popmetrics import PopConfig

        tmp = tmp_path_factory.mktemp("obs_session")
        session = CouplingSession(telemetry=Telemetry(), seed=3)
        session.add_application(SP(16, "C", iterations=2), name="sp")
        session.set_analyzer(ratio=4.0)
        session.enable_monitor()
        session.enable_pop_metrics(PopConfig(window=0.5))
        session.enable_steering()
        session.enable_observability(str(tmp / "unified.ndjson"))
        return tmp, session, session.run()

    def test_result_and_report_carry_summary(self, observed):
        _tmp, _on, r_on = observed
        assert r_on.obs is not None
        assert r_on.obs["published"] > 0 and r_on.obs["rejected"] == 0
        assert "## Observability" in r_on.report.render()

    def test_unified_file_queryable_after_run(self, observed):
        tmp, _on, r_on = observed
        for schema, counts in r_on.obs["schemas"].items():
            got = list(iter_archive([tmp], schema=schema))
            assert len(got) == sum(counts.values()), schema

    def test_double_enable_rejected(self, observed):
        _tmp, on, _r_on = observed
        with pytest.raises(ConfigError):
            on.enable_observability()


class TestBenchLane:
    def test_telemetry_traces_the_hub_on_run_and_keeps_the_rows(self, tmp_path):
        # The lane once ignored the telemetry it was given: the trace held
        # no events and the JSON's telemetry headline read all zeros.
        from pathlib import Path

        from repro.bench.__main__ import main as bench_main

        baseline = Path(__file__).parent.parent / "benchmarks/baselines/BENCH_obs.json"
        rc = bench_main([
            "obs", "--scale", "small", "--json", "--telemetry",
            "--outdir", str(tmp_path), "--baseline", str(baseline),
        ])
        assert rc == 0
        trace = json.loads((tmp_path / "BENCH_obs.trace.json").read_text())
        assert trace["traceEvents"]
        payload = json.loads((tmp_path / "BENCH_obs.json").read_text())
        assert any(payload["telemetry"]["headline"].values())
