"""Benchmark-suite configuration.

``REPRO_BENCH_SCALE`` selects the parameter grid:

* ``small`` (default) — reduced process counts; the full suite runs in a few
  minutes and still checks every paper *shape* assertion.
* ``paper`` — the paper's own grids (2560-writer streams, 4096-rank SP.D,
  8281-rank BT.D); budget hours.

Each benchmark prints the regenerated table (use ``pytest -s``) and asserts
the shape criteria from DESIGN.md section 4.  A figure's driver runs once
per module: the ``test_*_regenerate`` test (first in file order) times it,
and the shape tests read the same result through the ``figure`` fixture.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def scale() -> str:
    value = os.environ.get("REPRO_BENCH_SCALE", "small")
    if value not in ("small", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be small|paper, got {value!r}")
    return value


@pytest.fixture(scope="session")
def show():
    """Print a rendered table so ``pytest -s`` reproduces the figure."""

    def _show(table) -> None:
        print()
        print(table.render())

    return _show


@pytest.fixture(scope="module")
def figure(scale):
    """``figure(driver)``: the driver's result at ``scale``, computed once per module."""
    results = {}

    def _figure(driver):
        if driver not in results:
            results[driver] = driver(scale=scale)
        return results[driver]

    return _figure
