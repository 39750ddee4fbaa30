"""Benchmark drivers regenerating every figure and table of the paper.

Each figure and table driver returns a result object carrying the raw
series and a rendered :class:`~repro.util.tables.Table` printing the same
rows the paper plots.  Each extension lane (chaos, codec, flow, metrics,
obs, steering) collects its rows into one
:class:`~repro.bench.harness.LaneResult`: raw values keyed by column name,
one format spec per column, and the lane's side files.  Drivers accept a
``scale``:

* ``"small"`` — reduced process counts / volumes, minutes of CPU; the
  default for the pytest-benchmark suite;
* ``"paper"`` — the paper's own parameter grid (2560-writer streams,
  4096-rank SP.D, 8281-rank BT.D); expect long runtimes.

Any other scale raises :class:`~repro.errors.ConfigError`.
"""

from repro.bench.compare import BenchComparison, compare_bench, load_bench_json
from repro.bench.chaos import chaos_resilience, load_plan
from repro.bench.codec import codec_reduction
from repro.bench.flow import flow_attribution
from repro.bench.metrics import metrics_timeline
from repro.bench.obs import obs_roundtrip
from repro.bench.steering import bench_policy, steering_adaptation
from repro.bench.harness import LaneResult, OverheadPoint, measure_overhead
from repro.bench.figures import (
    fig14_stream_throughput,
    fig15_overhead,
    fig16_tool_comparison,
    fig17_topology,
    fig18_density,
)
from repro.bench.tables import (
    bi_bandwidth_table,
    trace_size_table,
    fs_comparison_table,
)

__all__ = [
    "BenchComparison",
    "compare_bench",
    "load_bench_json",
    "LaneResult",
    "OverheadPoint",
    "measure_overhead",
    "chaos_resilience",
    "load_plan",
    "codec_reduction",
    "flow_attribution",
    "metrics_timeline",
    "obs_roundtrip",
    "bench_policy",
    "steering_adaptation",
    "fig14_stream_throughput",
    "fig15_overhead",
    "fig16_tool_comparison",
    "fig17_topology",
    "fig18_density",
    "bi_bandwidth_table",
    "trace_size_table",
    "fs_comparison_table",
]
