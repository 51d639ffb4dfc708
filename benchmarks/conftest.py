"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's artefacts
(``bench_paper.py``) or an ablation at ``DEFAULT_SCALE`` (a
proportionally scaled system preserving every Table I ratio) and
prints its rows with the paper's numbers alongside.  Runs are
single-shot (``benchmark.pedantic(rounds=1)``) — the quantity of
interest is the regenerated data, the wall-clock time is just
bookkeeping.

Sweeps are memoised per (scale, design) by
:mod:`repro.experiments.runner`, so the main-results figures share
one simulation sweep within a pytest session.
"""

from __future__ import annotations

import pytest


def emit(result, paper_note: str = "") -> None:
    """Print a regenerated figure table plus the paper's reference."""
    print()
    print(result.render())
    if paper_note:
        print(f"[paper] {paper_note}")


@pytest.fixture
def run_once(benchmark):
    """Run a figure runner exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
