"""Bench regression gate: a committed ``BENCH_*.json`` baseline is exact.

``python -m repro.bench <exp> --json`` writes the experiment's table rows
plus metadata.  Every gated lane is a seeded simulation in virtual time,
so regenerating it reproduces every cell string for string.  A baseline is
therefore a set of exact outputs: the candidate must have the same
experiment, the same columns, the same row count and the same value in
every cell.  Any difference, in either direction, fails the gate and is
reported as ``row i column: baseline -> candidate``.  Top-level metadata
(``elapsed_s``, the ``host`` header, telemetry summaries) is never compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigError


def _check_table(payload: Any, source: object) -> None:
    """Raise ConfigError unless ``payload`` holds a rectangular table."""
    if not isinstance(payload, dict):
        raise ConfigError(f"bench artefact {source} is not a JSON object")
    for key in ("experiment", "columns", "rows"):
        if key not in payload:
            raise ConfigError(f"bench artefact {source} misses required key {key!r}")
    columns, rows = payload["columns"], payload["rows"]
    if not isinstance(columns, list):
        raise ConfigError(f"bench artefact {source}: 'columns' is not a list")
    if not isinstance(rows, list):
        raise ConfigError(f"bench artefact {source}: 'rows' is not a list")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(columns):
            raise ConfigError(
                f"bench artefact {source}: row {i} is not a list of "
                f"{len(columns)} cells: {row!r}"
            )


def load_bench_json(path: str | Path) -> dict[str, Any]:
    """Read one ``BENCH_*.json`` artefact, validating its table shape."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"bench artefact not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bench artefact {path} is not valid JSON: {exc}") from None
    _check_table(payload, path)
    return payload


@dataclass
class BenchComparison:
    """Every way a candidate differs from its baseline; none means equal."""

    experiment: str
    differences: list[str] = field(default_factory=list)
    cells: int = 0

    @property
    def ok(self) -> bool:
        return not self.differences

    def render(self) -> str:
        lines = [f"bench baseline: {self.experiment}"]
        lines += [f"  {diff}" for diff in self.differences]
        lines.append(
            f"  {self.cells} cells compared, {len(self.differences)} differences"
        )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def compare_bench(baseline: dict[str, Any], candidate: dict[str, Any]) -> BenchComparison:
    """Check ``candidate`` against ``baseline`` cell for cell.

    Rows are matched positionally (the experiment grids are deterministic).
    A different experiment or column list stops the comparison; a different
    row count is reported and the shared rows are still compared.
    """
    _check_table(baseline, "baseline")
    _check_table(candidate, "candidate")
    cmp = BenchComparison(experiment=str(candidate["experiment"]))
    if baseline["experiment"] != candidate["experiment"]:
        cmp.differences.append(
            f"experiment: {baseline['experiment']!r} -> {candidate['experiment']!r}"
        )
        return cmp
    columns = baseline["columns"]
    if columns != candidate["columns"]:
        cmp.differences.append(f"columns: {columns} -> {candidate['columns']}")
        return cmp
    b_rows, c_rows = baseline["rows"], candidate["rows"]
    if len(b_rows) != len(c_rows):
        cmp.differences.append(f"row count: {len(b_rows)} -> {len(c_rows)}")
    for i, (b_row, c_row) in enumerate(zip(b_rows, c_rows)):
        for column, b_val, c_val in zip(columns, b_row, c_row):
            cmp.cells += 1
            if b_val != c_val:
                cmp.differences.append(f"row {i} {column}: {b_val!r} -> {c_val!r}")
    return cmp
