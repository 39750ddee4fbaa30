"""Drivers for the paper's in-text quantitative claims."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.nas import SP
from repro.bench.harness import by_scale, measure_overhead
from repro.core.comparison import run_tool
from repro.network.machine import CURIE, MachineSpec, TERA100
from repro.telemetry import Telemetry
from repro.util.tables import Table
from repro.util.units import GB, MB


# --------------------------------------------------------------------------------------
# In-text: Bi(SP.C) = 2.37 GB/s vs Bi(SP.D) = 334.99 MB/s at 900 cores
# --------------------------------------------------------------------------------------


@dataclass
class BiResult:
    machine: str
    rows: list[dict] = field(default_factory=list)

    def bi(self, label: str) -> float:
        for row in self.rows:
            if row["app"] == label:
                return row["bi"]
        raise KeyError(label)

    def table(self) -> Table:
        t = Table(
            ["benchmark", "nprocs", "Bi", "overhead_pct", "paper_Bi"],
            title=f"In-text — instrumentation bandwidth Bi at 900 cores ({self.machine})",
        )
        for row in self.rows:
            t.add_row(
                row["app"],
                row["nprocs"],
                f"{row['bi'] / GB:.3f} GB/s" if row["bi"] >= GB else f"{row['bi'] / MB:.1f} MB/s",
                row["overhead_pct"],
                row["paper"],
            )
        return t


def bi_bandwidth_table(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> BiResult:
    """Bi comparison of SP.C vs SP.D (paper Sec. IV-C, at 900 cores)."""
    nprocs = by_scale(scale, small=225, paper=900)
    result = BiResult(machine=machine.name)
    for klass, paper_value in (("C", "2.37 GB/s"), ("D", "334.99 MB/s")):
        point = measure_overhead(
            SP(nprocs, klass, iterations=3), machine, ratio=1.0, seed=seed,
            telemetry=telemetry,
        )
        result.rows.append(
            {
                "app": point.app,
                "nprocs": point.nprocs,
                "bi": point.bi_bandwidth,
                "overhead_pct": point.overhead_pct,
                "paper": paper_value,
            }
        )
    return result


# --------------------------------------------------------------------------------------
# In-text: trace volumes — Score-P 313 MB -> 116 GB, online 923.93 MB -> 333.22 GB
# --------------------------------------------------------------------------------------


@dataclass
class TraceSizeResult:
    machine: str
    rows: list[dict] = field(default_factory=list)

    def volume(self, tool: str, nprocs: int) -> int:
        for row in self.rows:
            if row["tool"] == tool and row["nprocs"] == nprocs:
                return row["volume"]
        raise KeyError((tool, nprocs))

    def ratio(self, nprocs: int) -> float:
        """online volume / Score-P trace volume (paper: ~2.9x)."""
        return self.volume("online", nprocs) / self.volume("scorep_trace", nprocs)

    def table(self) -> Table:
        t = Table(
            ["tool", "nprocs", "full_run_volume_GB"],
            title=f"In-text — SP.D full-run measurement volumes ({self.machine})",
        )
        for row in self.rows:
            t.add_row(row["tool"], row["nprocs"], row["volume"] / GB)
        return t


def trace_size_table(
    scale: str = "small",
    machine: MachineSpec = CURIE,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> TraceSizeResult:
    """Full-run data volumes for SP.D: online streams vs Score-P traces.

    Volumes are extrapolated from the simulated iterations to the official
    iteration count (both tools scale linearly in events).
    """
    counts = by_scale(scale, small=[64, 256], paper=[256, 1024, 4096])
    result = TraceSizeResult(machine=machine.name)
    for nprocs in counts:
        for tool in ("online", "scorep_trace"):
            run = run_tool(
                SP(nprocs, "D", iterations=3), tool, machine, seed=seed,
                telemetry=telemetry,
            )
            result.rows.append(
                {"tool": tool, "nprocs": nprocs, "volume": run.full_run_volume_bytes}
            )
    return result


# --------------------------------------------------------------------------------------
# In-text: FS comparison — 500 GB/s scaled to 9.1 GB/s at 2560 cores;
# streams competitive until ratio ~1/25; 1/10 a good trade-off
# --------------------------------------------------------------------------------------


@dataclass
class FSComparisonResult:
    machine: str
    writers: int
    fs_scaled: float
    rows: list[dict] = field(default_factory=list)

    def crossover_ratio(self) -> float:
        """Largest swept ratio at which streams still beat the scaled FS."""
        beating = [r["ratio"] for r in self.rows if r["throughput"] > self.fs_scaled]
        return max(beating) if beating else 0.0

    def table(self) -> Table:
        t = Table(
            ["ratio", "readers", "stream_GBps", "fs_scaled_GBps", "streams_win"],
            title=(
                f"In-text — streams vs scaled FS at {self.writers} writers "
                f"({self.machine})"
            ),
        )
        for row in self.rows:
            t.add_row(
                int(row["ratio"]),
                int(row["readers"]),
                row["throughput"] / GB,
                self.fs_scaled / GB,
                row["throughput"] > self.fs_scaled,
            )
        return t


def fs_comparison_table(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> FSComparisonResult:
    """Stream throughput against the job-scaled file-system bandwidth."""
    from repro.bench.figures import _stream_point
    from repro.util.units import GIB, MIB

    writers, ratios, bytes_per_writer = by_scale(
        scale,
        small=(320, [1, 4, 10, 16, 32, 64], 32 * MIB),
        paper=(2560, [1, 2, 4, 8, 10, 16, 25, 32, 64], 1 * GIB),
    )
    result = FSComparisonResult(
        machine=machine.name,
        writers=writers,
        fs_scaled=machine.fs_job_bandwidth(writers),
    )
    for ratio in ratios:
        point = _stream_point(
            machine, writers, ratio, bytes_per_writer, MIB, seed, telemetry=telemetry
        )
        result.rows.append(point)
    return result
