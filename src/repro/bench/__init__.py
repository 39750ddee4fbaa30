"""Benchmark drivers regenerating every figure and table of the paper.

Each driver returns a result object carrying the raw series and a rendered
:class:`~repro.util.tables.Table` printing the same rows the paper plots.
Drivers accept a ``scale``:

* ``"small"`` — reduced process counts / volumes, minutes of CPU; the
  default for the pytest-benchmark suite;
* ``"paper"`` — the paper's own parameter grid (2560-writer streams,
  4096-rank SP.D, 8281-rank BT.D); expect long runtimes.
"""

from repro.bench.compare import BenchComparison, compare_bench, load_bench_json
from repro.bench.chaos import ChaosPoint, ChaosResult, chaos_resilience, load_plan
from repro.bench.codec import CodecPoint, CodecResult, codec_reduction
from repro.bench.flow import FlowPoint, FlowResult, flow_attribution
from repro.bench.metrics import MetricsPoint, MetricsResult, metrics_timeline
from repro.bench.obs import ObsResult, obs_roundtrip
from repro.bench.steering import (
    SteeringBenchPoint,
    SteeringBenchResult,
    bench_policy,
    steering_adaptation,
)
from repro.bench.harness import OverheadPoint, measure_overhead
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
    "OverheadPoint",
    "measure_overhead",
    "ChaosPoint",
    "ChaosResult",
    "chaos_resilience",
    "load_plan",
    "CodecPoint",
    "CodecResult",
    "codec_reduction",
    "FlowPoint",
    "FlowResult",
    "flow_attribution",
    "MetricsPoint",
    "MetricsResult",
    "metrics_timeline",
    "ObsResult",
    "obs_roundtrip",
    "SteeringBenchPoint",
    "SteeringBenchResult",
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
