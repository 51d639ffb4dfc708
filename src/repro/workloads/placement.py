"""Footprint placement over the OS physical address space.

How a workload's pages land in physical memory decides which segment
groups have free segments — the quantity Chameleon harvests.  Two
models are provided:

* :func:`contiguous_placement` — pages packed from address zero, the
  behaviour of a freshly booted machine whose free memory is still one
  contiguous range;
* :func:`scattered_placement` — pages spread uniformly at random over
  the physical space, the steady state of a long-running machine whose
  free lists have been churned by allocation/free cycles (the regime
  the paper's Figure 3 system lives in, and the one that reproduces the
  paper's cache-mode fractions: with occupancy ``p`` a group of ``k``
  segments keeps at least one free segment with probability
  ``1 - p**k`` — 40.6% for the 4GB+20GB system at 91.7% occupancy,
  Figure 16's Chameleon-Opt average).
"""

from __future__ import annotations

from typing import List

import numpy as np


def contiguous_placement(
    total_segments: int, allocated_segments: int, start: int = 0
) -> List[int]:
    """Allocate ``allocated_segments`` consecutively from ``start``."""
    _check(total_segments, allocated_segments)
    if start < 0 or start + allocated_segments > total_segments:
        raise ValueError("contiguous run does not fit")
    return list(range(start, start + allocated_segments))


def scattered_placement(
    total_segments: int, allocated_segments: int, seed: int = 0
) -> List[int]:
    """Allocate ``allocated_segments`` uniformly at random (seeded)."""
    _check(total_segments, allocated_segments)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(total_segments, size=allocated_segments, replace=False)
    chosen.sort()
    return [int(value) for value in chosen]


def _check(total_segments: int, allocated_segments: int) -> None:
    if total_segments <= 0:
        raise ValueError("total_segments must be positive")
    if not 0 < allocated_segments <= total_segments:
        raise ValueError(
            f"cannot place {allocated_segments} segments in "
            f"{total_segments}"
        )
