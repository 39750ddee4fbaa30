"""Benchmark-driver plumbing: validation, result accessors, tiny runs.

The heavy figure regenerations live in benchmarks/; here we exercise the
drivers' result containers and error paths, plus one genuinely tiny
end-to-end stream point so the figure code itself is covered by the unit
suite.
"""

import pytest

from repro.errors import ConfigError
from repro.bench import (
    LaneResult,
    chaos_resilience,
    codec_reduction,
    flow_attribution,
    metrics_timeline,
    obs_roundtrip,
    steering_adaptation,
)
from repro.bench.figures import (
    Fig14Result,
    Fig16Result,
    _stream_point,
    fig14_stream_throughput,
    fig15_overhead,
    fig16_tool_comparison,
    fig17_topology,
    fig18_density,
)
from repro.bench.tables import bi_bandwidth_table, fs_comparison_table, trace_size_table
from repro.core.comparison import ToolRunResult
from repro.network.machine import small_test_machine
from repro.util.units import MIB


class TestScaleValidation:
    @pytest.mark.parametrize(
        "driver",
        [
            fig14_stream_throughput,
            fig15_overhead,
            fig16_tool_comparison,
            fig17_topology,
            fig18_density,
            bi_bandwidth_table,
            trace_size_table,
            fs_comparison_table,
            chaos_resilience,
            codec_reduction,
            flow_attribution,
            metrics_timeline,
            obs_roundtrip,
            steering_adaptation,
        ],
    )
    def test_unknown_scale_rejected(self, driver):
        with pytest.raises(ConfigError):
            driver(scale="galactic")


class TestStreamPoint:
    def test_tiny_point_end_to_end(self):
        machine = small_test_machine(nodes=64, cores_per_node=4)
        point = _stream_point(
            machine, writers=8, ratio=4, bytes_per_writer=4 * MIB,
            block_size=MIB, seed=0,
        )
        assert point["readers"] == 2
        assert point["bytes"] == 8 * 4 * MIB
        assert point["throughput"] > 0
        assert point["fs_scaled"] == machine.fs_job_bandwidth(8)

    def test_reader_floor(self):
        machine = small_test_machine(nodes=64, cores_per_node=4)
        point = _stream_point(machine, 2, 64, 1 * MIB, MIB, 0)
        assert point["readers"] == 1


class TestResultContainers:
    def test_lane_result_keeps_raw_rows_and_formats_cells(self):
        lane = LaneResult("T", {"plan": "", "ok": "", "loss_pct": ".2f", "n": ""})
        lane.add(plan="drop", ok=True, loss_pct=12.3456, n=3)
        assert lane.rows[0]["loss_pct"] == 12.3456
        table = lane.table()
        assert table.title == "T"
        assert table.rows == [["drop", "yes", "12.35", "3"]]
        with pytest.raises(ValueError):
            lane.add(plan="x", ok=False, loss_pct=0.0)

    def test_fig14_result_accessors(self):
        result = Fig14Result(machine="X")
        result.points.append(
            {"writers": 8.0, "ratio": 1.0, "readers": 8.0, "throughput": 5.0,
             "fs_scaled": 1.0, "bytes": 100.0}
        )
        result.points.append(
            {"writers": 8.0, "ratio": 2.0, "readers": 4.0, "throughput": 9.0,
             "fs_scaled": 1.0, "bytes": 100.0}
        )
        assert result.throughput(8, 2.0) == 9.0
        assert result.peak()["ratio"] == 2.0
        with pytest.raises(KeyError):
            result.throughput(16, 1.0)
        rendered = result.table().render()
        assert "Figure 14" in rendered

    def test_fig16_result_accessors(self):
        result = Fig16Result(machine="X")
        result.runs.append(
            ToolRunResult(tool="online", app="SP.D", nprocs=64, walltime=1.0,
                          overhead_pct=2.0)
        )
        assert result.overhead("online", 64) == 2.0
        assert result.by_tool()["online"][0].nprocs == 64
        with pytest.raises(KeyError):
            result.overhead("online", 128)
        assert "Figure 16" in result.table().render()
