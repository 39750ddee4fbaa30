"""Unified observability bus: registry, bus fan-out, sinks, CLI, wiring."""

import json
import socket
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.obs import (
    ArchiveScan,
    FileSink,
    HEALTH_SCHEMA,
    METRICS_SCHEMA,
    ObservabilityBus,
    REGISTRY,
    RingSink,
    STEERING_SCHEMA,
    TELEMETRY_SCHEMA,
    TailServer,
    default_registry,
    iter_archive,
    iter_ndjson,
    make_record,
    parse_address,
    record_time,
)
from repro.obs.__main__ import main as obs_main

pytestmark = pytest.mark.obs


def _window(t1=1.0, **extra):
    return make_record(METRICS_SCHEMA, "window", t0=t1 - 0.5, t1=t1, **extra)


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
        from repro.telemetry.stream_export import METRICS_SCHEMA as legacy_metrics
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
        ring_a, ring_b = RingSink(8), RingSink(8)
        bus.add_sink(ring_a, name="all")
        bus.add_sink(ring_b, schemas=[HEALTH_SCHEMA], name="health-only")
        bus.publish(_window())
        bus.publish(make_record(HEALTH_SCHEMA, "stream_stall", t_detect=1.0))
        assert bus.published == 2
        assert bus.count(METRICS_SCHEMA) == 1
        assert bus.count(HEALTH_SCHEMA, "stream_stall") == 1
        assert len(ring_a) == 2 and len(ring_b) == 1

    def test_malformed_record_rejected_at_publish(self):
        bus = ObservabilityBus()
        sink = RingSink(8)
        bus.add_sink(sink)
        with pytest.raises(ConfigError):
            bus.publish({"schema": "repro.nonesuch/1", "kind": "x"})
        with pytest.raises(ConfigError):
            bus.publish(make_record(METRICS_SCHEMA, "not_a_kind"))
        assert bus.rejected == 2
        assert bus.published == 0
        assert len(sink) == 0  # nothing malformed reached any sink

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
            bus.add_sink(RingSink(8), schemas=["repro.nonesuch/1"])

    def test_close_idempotent(self, tmp_path):
        bus = ObservabilityBus()
        bus.add_sink(FileSink(str(tmp_path / "out.ndjson")))
        bus.close()
        bus.close()


# -- file sink ----------------------------------------------------------------------


class TestFileSink:
    def test_bytes_identical_to_legacy_writer(self, tmp_path):
        """The engine's ``stream=`` file and a bus file sink fed by the
        same engine hold the same pop-metrics bytes."""
        from repro.simt import Kernel
        from repro.telemetry import Telemetry
        from repro.telemetry.popmetrics import PopConfig, PopMetricsEngine

        stream_path = tmp_path / "stream.ndjson"
        bus_path = tmp_path / "bus.ndjson"
        tel = Telemetry()
        kernel = Kernel(telemetry=tel)
        engine = PopMetricsEngine(tel, PopConfig(window=0.01))
        stream = FileSink(str(stream_path))
        engine.add_sink(stream.emit)
        bus = ObservabilityBus()
        bus.add_sink(FileSink(str(bus_path)))
        # A line of another schema, which the comparison must filter out.
        bus.publish(make_record(HEALTH_SCHEMA, "stream_stall", t_detect=0.0))
        engine.add_sink(bus.publish)
        engine.attach(kernel)
        kernel.timeout(0.035)
        kernel.run()
        engine.finalize(kernel.now)
        stream.close()
        bus.close()
        bus_metric_lines = b"".join(
            line
            for line in bus_path.read_bytes().splitlines(keepends=True)
            if json.loads(line)["schema"] == METRICS_SCHEMA
        )
        assert stream_path.read_bytes().count(b"\n") == 6  # 4 windows, phase, summary
        assert bus_metric_lines == stream_path.read_bytes()

    def test_emit_after_close_raises(self, tmp_path):
        sink = FileSink(str(tmp_path / "out.ndjson"))
        sink.close()
        with pytest.raises(ConfigError):
            sink.emit(_window())


# -- ring sink ----------------------------------------------------------------------


class TestRingSink:
    def test_overflow_drop_oldest_accounting(self):
        ring = RingSink(capacity=3)
        for i in range(5):
            assert ring.emit(_window(t1=float(i), seq=i))
        assert len(ring) == 3
        assert ring.accepted == 5
        assert ring.evicted == 2
        assert [r["seq"] for r in ring.records()] == [2, 3, 4]
        assert ring.stats() == {"capacity": 3, "retained": 3, "evicted": 2}

    def test_query_filters(self):
        ring = RingSink(capacity=8)
        ring.emit(_window(t1=1.0))
        ring.emit(make_record(HEALTH_SCHEMA, "stream_stall", t_detect=2.0))
        ring.emit(make_record(STEERING_SCHEMA, "decision", t=3.0))
        assert len(list(ring.query(schema=HEALTH_SCHEMA))) == 1
        assert len(list(ring.query(kind="window"))) == 1
        # --since is inclusive and excludes time-less records
        assert [r["schema"] for r in ring.query(since=2.0)] == [
            HEALTH_SCHEMA,
            STEERING_SCHEMA,
        ]
        ring.emit(make_record(TELEMETRY_SCHEMA, "counter", name="n", value=1))
        assert all(
            r["kind"] != "counter" for r in ring.query(since=0.0)
        ), "time-less record must not pass a since filter"

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            RingSink(capacity=0)


# -- tail server --------------------------------------------------------------------


def _connect(server: TailServer) -> socket.socket:
    family, sockaddr = parse_address(server.address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(sockaddr)
    return sock


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestTailServer:
    def test_live_client_receives_lines(self):
        server = TailServer("127.0.0.1:0")
        try:
            sock = _connect(server)
            assert _wait_until(lambda: server.stats()["clients_served"] == 1)
            records = [_window(t1=float(i)) for i in range(3)]
            for record in records:
                assert server.emit(record)
            fh = sock.makefile("rb")
            got = [json.loads(fh.readline()) for _ in records]
            assert got == records
            sock.close()
        finally:
            server.close()

    def test_no_clients_counts_delivered(self):
        server = TailServer("127.0.0.1:0")
        try:
            assert server.emit(_window())  # a file nobody reads, not a drop
        finally:
            server.close()

    def test_slow_client_drops_counted_publisher_unblocked(self):
        # Bound small enough that a couple of records overflow a client
        # that never reads.
        server = TailServer("127.0.0.1:0", max_pending_bytes=96)
        try:
            sock = _connect(server)
            assert _wait_until(lambda: server.stats()["clients_served"] == 1)
            t0 = time.monotonic()
            results = [
                server.emit(_window(t1=float(i), pad="x" * 64)) for i in range(50)
            ]
            elapsed = time.monotonic() - t0
            assert elapsed < 2.0, "publisher must never block on a slow client"
            assert not all(results), "overflowing client must surface drops"
            assert _wait_until(
                lambda: sum(c["dropped"] for c in server.stats()["clients"]) > 0
            )
            sock.close()
        finally:
            server.close()

    def test_unix_socket_roundtrip(self, tmp_path):
        path = str(tmp_path / "obs.sock")
        server = TailServer(path)
        try:
            assert server.address == path
            sock = _connect(server)
            assert _wait_until(lambda: server.stats()["clients_served"] == 1)
            record = make_record(HEALTH_SCHEMA, "backlog_growth", t_detect=1.5)
            server.emit(record)
            assert json.loads(sock.makefile("rb").readline()) == record
            sock.close()
        finally:
            server.close()
        assert not (tmp_path / "obs.sock").exists()

    def test_emit_after_close_raises(self):
        server = TailServer("127.0.0.1:0")
        server.close()
        with pytest.raises(ConfigError):
            server.emit(_window())

    def test_bad_address_rejected(self):
        with pytest.raises(ConfigError):
            parse_address("host:notaport")


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
    """The satellite fix: iter_metrics_stream grows a resumable tail mode."""

    def _write(self, path, records):
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )

    def test_default_mode_unchanged(self, tmp_path):
        from repro.telemetry.stream_export import (
            iter_metrics_stream,
            read_metrics_stream,
        )

        path = tmp_path / "s.ndjson"
        records = [_window(t1=1.0), _window(t1=2.0)]
        self._write(path, records)
        assert list(iter_metrics_stream(str(path))) == records
        assert read_metrics_stream(str(path)) == records

    def test_tail_mode_resumes_across_partial(self, tmp_path):
        from repro.telemetry.stream_export import iter_metrics_stream

        path = tmp_path / "s.ndjson"
        first = json.dumps(_window(t1=1.0)) + "\n"
        path.write_text(first + json.dumps(_window(t1=2.0))[:10])
        pairs = list(iter_metrics_stream(str(path), tail=True))
        assert len(pairs) == 1 and pairs[0][1]["t1"] == 1.0
        path.write_text(first + json.dumps(_window(t1=2.0)) + "\n")
        resumed = list(iter_metrics_stream(str(path), tail=True, start=pairs[0][0]))
        assert [r["t1"] for _o, r in resumed] == [2.0]

    def test_tail_mode_still_validates_schema(self, tmp_path):
        from repro.telemetry.stream_export import iter_metrics_stream

        path = tmp_path / "s.ndjson"
        path.write_text(json.dumps({"schema": "other/1", "kind": "window"}) + "\n")
        with pytest.raises(ConfigError):
            list(iter_metrics_stream(str(path), tail=True))

    def test_mid_file_corruption_still_loud(self, tmp_path):
        from repro.telemetry.stream_export import iter_metrics_stream

        path = tmp_path / "s.ndjson"
        path.write_text("not json\n" + json.dumps(_window()) + "\n")
        with pytest.raises(ConfigError):
            list(iter_metrics_stream(str(path), tail=True))


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

    def test_tail_socket(self, tmp_path, capsys):
        server = TailServer("127.0.0.1:0")
        record = make_record(HEALTH_SCHEMA, "stream_stall", t_detect=1.0)

        def feed():
            _wait_until(lambda: server.stats()["clients_served"] == 1)
            server.emit(record)
            _wait_until(
                lambda: sum(c["sent"] for c in server.stats()["clients"]) == 1
            )
            server.close()  # EOF ends the client tail

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            assert obs_main(["tail", server.address, "--schema", HEALTH_SCHEMA]) == 0
        finally:
            feeder.join()
            server.close()
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert out == [record]

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
    def session_pair(self, tmp_path_factory):
        from repro.apps.nas import SP
        from repro.core.session import CouplingSession
        from repro.telemetry import Telemetry
        from repro.telemetry.popmetrics import PopConfig

        tmp = tmp_path_factory.mktemp("obs_session")

        def build(stream=None):
            session = CouplingSession(telemetry=Telemetry(), seed=3)
            session.add_application(SP(16, "C", iterations=2), name="sp")
            session.set_analyzer(ratio=4.0)
            session.enable_monitor()
            session.enable_pop_metrics(PopConfig(window=0.5), stream=stream)
            session.enable_steering()
            return session

        off = build(stream=str(tmp / "pop_off.ndjson"))
        r_off = off.run()
        on = build(stream=str(tmp / "pop.ndjson"))
        on.enable_observability(str(tmp / "unified.ndjson"))
        r_on = on.run()
        return tmp, r_off, on, r_on

    def test_bus_run_bit_identical(self, session_pair):
        _tmp, r_off, _on, r_on = session_pair
        assert r_off.apps["sp"].walltime == r_on.apps["sp"].walltime
        assert r_off.analyzer_walltime == r_on.analyzer_walltime

    def test_pop_stream_byte_identical_through_bus(self, session_pair):
        tmp, _r_off, _on, _r_on = session_pair
        legacy = (tmp / "pop.ndjson").read_bytes()
        bus_lines = b"".join(
            line
            for line in (tmp / "unified.ndjson").read_bytes().splitlines(keepends=True)
            if json.loads(line).get("schema") == METRICS_SCHEMA
        )
        assert bus_lines == legacy

    def test_result_and_report_carry_summary(self, session_pair):
        _tmp, _r_off, _on, r_on = session_pair
        assert r_on.obs is not None
        assert r_on.obs["published"] > 0 and r_on.obs["rejected"] == 0
        assert "## Observability" in r_on.report.render()

    def test_ring_queryable_after_run(self, session_pair):
        _tmp, _r_off, on, r_on = session_pair
        ring = on.obs_ring
        assert ring is not None and len(ring) > 0
        assert len(list(ring.query(schema=TELEMETRY_SCHEMA))) == sum(
            r_on.obs["schemas"][TELEMETRY_SCHEMA].values()
        )

    def test_double_enable_rejected(self, session_pair):
        _tmp, _r_off, on, _r_on = session_pair
        with pytest.raises(ConfigError):
            on.enable_observability()


# -- bench compare schema warning ---------------------------------------------------


class TestCompareSchemaWarning:
    def test_unknown_baseline_schema_warns_not_fails(self):
        from repro.bench.compare import compare_bench

        base = {
            "experiment": "obs",
            "columns": ["schema", "bus_records"],
            "rows": [["repro.telemetry/1", 3]],
            "bus": {"schemas": {"repro.retired-plane/1": {"x": 1}}},
            "records": [{"schema": "repro.retired-plane/1", "kind": "x"}],
        }
        cand = {
            "experiment": "obs",
            "columns": ["schema", "bus_records"],
            "rows": [["repro.telemetry/1", 3]],
        }
        cmp = compare_bench(base, cand)
        assert cmp.ok
        assert any("repro.retired-plane/1" in w for w in cmp.warnings)

    def test_known_schemas_no_warning(self):
        from repro.bench.compare import compare_bench

        base = {
            "experiment": "obs",
            "columns": ["schema"],
            "rows": [["repro.telemetry/1"]],
            "bus": {"schemas": {TELEMETRY_SCHEMA: {"span": 1}}},
        }
        cmp = compare_bench(base, dict(base))
        assert cmp.ok and not any("schema tag" in w for w in cmp.warnings)
