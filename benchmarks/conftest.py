"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation at a
reduced (but shape-preserving) scale, times the end-to-end experiment with
``pytest-benchmark``, and prints the regenerated rows so the run output can be
compared side by side with the paper (see EXPERIMENTS.md).

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Sequence

import pytest

from repro.analysis.perf import tune_gc
from repro.analysis.tables import format_table

# The benchmark process accumulates large immutable setup-cache masters;
# default GC thresholds rescan them constantly (see repro.analysis.perf).
tune_gc()


class Reporter:
    """Runs one experiment under the benchmark timer and prints its rows.

    Calling it returns the experiment's result; ``wall_seconds`` then holds
    the wall time of that run, for the benchmarks that publish it.
    """

    def __init__(self, benchmark) -> None:
        self.benchmark = benchmark
        self.wall_seconds: float | None = None

    def __call__(
        self,
        experiment: Callable[[], Any],
        title: str,
        columns: Sequence[str] | None = None,
    ) -> Any:
        start = time.perf_counter()
        result = self.benchmark.pedantic(experiment, rounds=1, iterations=1)
        self.wall_seconds = time.perf_counter() - start
        rows = result["rows"] if isinstance(result, Mapping) and "rows" in result else result
        print()
        if isinstance(rows, Sequence) and rows and isinstance(rows[0], Mapping):
            print(format_table(list(rows), columns=columns, title=title))
        else:
            print(title)
            print(rows)
        if isinstance(result, Mapping):
            extras = {
                k: v for k, v in result.items() if k != "rows" and not isinstance(v, (list, dict))
            }
            if extras:
                print("summary:", extras)
        return result


@pytest.fixture()
def report(benchmark) -> Reporter:
    """A :class:`Reporter` bound to the current benchmark."""
    return Reporter(benchmark)
