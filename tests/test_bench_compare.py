"""Bench regression gate: committed baselines must match cell for cell."""

import json

import pytest

from repro.bench.compare import compare_bench, load_bench_json
from repro.bench.__main__ import main as bench_main
from repro.errors import ConfigError


def payload(rows, columns=("writers", "throughput_GBps", "overhead_pct"),
            experiment="fig14"):
    return {
        "experiment": experiment,
        "scale": "small",
        "seed": 0,
        "elapsed_s": 1.0,
        "columns": list(columns),
        "rows": [list(r) for r in rows],
    }


BASE = payload([["64", "10.0", "5.0"], ["128", "20.0", "5.0"]])


class TestCompare:
    def test_identical_passes(self):
        cmp = compare_bench(BASE, payload([["64", "10.0", "5.0"], ["128", "20.0", "5.0"]]))
        assert cmp.ok
        assert cmp.differences == []
        assert cmp.cells == 6
        assert "PASS" in cmp.render()

    def test_throughput_drop_regresses(self):
        cand = payload([["64", "8.0", "5.0"], ["128", "20.0", "5.0"]])
        cmp = compare_bench(BASE, cand)
        assert not cmp.ok
        assert cmp.differences == ["row 0 throughput_GBps: '10.0' -> '8.0'"]
        assert "FAIL" in cmp.render()

    def test_four_percent_drop_fails(self):
        cand = payload([["64", "10.0", "5.0"], ["128", "19.2", "5.0"]])
        cmp = compare_bench(BASE, cand)
        assert cmp.differences == ["row 1 throughput_GBps: '20.0' -> '19.2'"]

    def test_one_and_a_half_times_gain_fails(self):
        cand = payload([["64", "15.0", "5.0"], ["128", "30.0", "5.0"]])
        cmp = compare_bench(BASE, cand)
        assert not cmp.ok
        assert cmp.differences == [
            "row 0 throughput_GBps: '10.0' -> '15.0'",
            "row 1 throughput_GBps: '20.0' -> '30.0'",
        ]

    def test_overhead_growth_and_shrink_both_fail(self):
        worse = payload([["64", "10.0", "6.0"], ["128", "20.0", "5.0"]])
        assert not compare_bench(BASE, worse).ok
        better = payload([["64", "10.0", "4.0"], ["128", "20.0", "5.0"]])
        assert compare_bench(BASE, better).differences == [
            "row 0 overhead_pct: '5.0' -> '4.0'"
        ]

    def test_parameter_drift_regresses_both_directions(self):
        for writers in ("70", "60"):
            cand = payload([[writers, "10.0", "5.0"], ["128", "20.0", "5.0"]])
            cmp = compare_bench(BASE, cand)
            assert cmp.differences == [f"row 0 writers: '64' -> '{writers}'"]

    def test_zero_baseline_cells_compare_exactly(self):
        base = payload([["64", "0.0", "5.0"]])
        assert compare_bench(base, payload([["64", "0.0", "5.0"]])).ok
        assert not compare_bench(base, payload([["64", "3.0", "5.0"]])).ok

    def test_textual_cells_must_match(self):
        cols = ("tool", "overhead_pct")
        base = payload([["mpiP", "5.0"]], columns=cols, experiment="fig16")
        ok = payload([["mpiP", "5.0"]], columns=cols, experiment="fig16")
        assert compare_bench(base, ok).ok
        renamed = payload([["Scalasca", "5.0"]], columns=cols, experiment="fig16")
        assert compare_bench(base, renamed).differences == [
            "row 0 tool: 'mpiP' -> 'Scalasca'"
        ]

    def test_elapsed_is_never_compared(self):
        assert compare_bench(BASE, dict(BASE, elapsed_s=99.0)).ok

    def test_host_header_is_never_compared(self):
        host = {"python": "3.11.7", "cpu_count": 1}
        other = {"python": "3.12.1", "cpu_count": 2}
        assert compare_bench(dict(BASE, host=host), dict(BASE, host=other)).ok
        assert compare_bench(BASE, dict(BASE, host=host)).ok

    def test_cell_type_is_part_of_the_value(self):
        cand = payload([["64", 10.0, "5.0"], ["128", "20.0", "5.0"]])
        assert not compare_bench(BASE, cand).ok


class TestStructural:
    def test_experiment_mismatch(self):
        cmp = compare_bench(BASE, payload([["64", "10.0", "5.0"]], experiment="fig15"))
        assert not cmp.ok
        assert cmp.differences == ["experiment: 'fig14' -> 'fig15'"]

    def test_row_count_change(self):
        cmp = compare_bench(BASE, payload([["64", "10.0", "5.0"]]))
        assert not cmp.ok
        assert cmp.differences == ["row count: 2 -> 1"]

    def test_column_changes(self):
        cand = payload(
            [["64", "10.0"], ["128", "20.0"]], columns=("writers", "throughput_GBps")
        )
        cmp = compare_bench(BASE, cand)
        assert not cmp.ok
        assert cmp.differences[0].startswith("columns: ")

    def test_ragged_in_memory_payload_is_a_config_error(self):
        with pytest.raises(ConfigError, match="candidate: row 1"):
            compare_bench(BASE, payload([["64", "10.0", "5.0"], ["128", "20.0"]]))


class TestFiles:
    def test_load_validates_shape(self, tmp_path):
        with pytest.raises(ConfigError):
            load_bench_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ConfigError):
            load_bench_json(bad)
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"experiment": "x"}))
        with pytest.raises(ConfigError):
            load_bench_json(partial)

    @pytest.mark.parametrize(
        "change, expected",
        [
            ({"rows": [["64", "10.0", "5.0"], ["128", "20.0"]]}, "row 1 "),
            ({"rows": [["64", "10.0", "5.0", "7"]]}, "row 0 "),
            ({"rows": "64,10.0,5.0"}, "'rows' is not a list"),
            ({"columns": "writers"}, "'columns' is not a list"),
        ],
        ids=["short-row", "long-row", "rows-string", "columns-string"],
    )
    def test_load_rejects_ragged_tables(self, tmp_path, change, expected):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(dict(BASE, **change)))
        with pytest.raises(ConfigError, match=expected) as exc:
            load_bench_json(path)
        assert str(path) in str(exc.value)

    def test_load_roundtrip(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(BASE))
        b.write_text(json.dumps(payload([["64", "8.0", "5.0"], ["128", "20.0", "5.0"]])))
        assert compare_bench(load_bench_json(a), load_bench_json(a)).ok
        assert not compare_bench(load_bench_json(a), load_bench_json(b)).ok


class TestCLI:
    def test_baseline_flag_rejected_with_all(self):
        with pytest.raises(SystemExit):
            bench_main(["all", "--baseline", "x.json"])

    def test_committed_baseline_matches_regeneration(self, tmp_path, capsys):
        # The CI gate in miniature: regenerate fig14 small and self-gate
        # against the committed baseline artefact.
        rc = bench_main([
            "fig14", "--scale", "small", "--json",
            "--outdir", str(tmp_path),
            "--baseline", "benchmarks/baselines/BENCH_fig14.json",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 differences" in out and "PASS" in out

    @pytest.mark.parametrize("lane", ["chaos", "flow", "codec"])
    def test_lane_baseline_matches_with_telemetry(self, lane, tmp_path, capsys):
        # The lane-smoke gate in miniature, for the fast lanes: --telemetry
        # traces the run and must leave every row at the baseline.
        rc = bench_main([
            lane, "--scale", "small", "--json", "--telemetry",
            "--outdir", str(tmp_path),
            "--baseline", f"benchmarks/baselines/BENCH_{lane}.json",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 differences" in out and "PASS" in out
        assert (tmp_path / f"BENCH_{lane}.trace.json").exists()

    def test_baseline_with_one_changed_cell_exits_1(self, tmp_path, capsys):
        baseline = load_bench_json("benchmarks/baselines/BENCH_metrics.json")
        column = baseline["columns"].index("pe")
        old = baseline["rows"][1][column]
        new = f"{float(old) * 0.96:.6f}"
        baseline["rows"][1][column] = new
        changed = tmp_path / "BENCH_metrics.json"
        changed.write_text(json.dumps(baseline))
        rc = bench_main([
            "metrics", "--scale", "small", "--baseline", str(changed),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"row 1 pe: '{new}' -> '{old}'" in out
        assert "1 differences" in out and "FAIL" in out
