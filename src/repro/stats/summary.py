"""Aggregation helper matching the paper's reporting convention.

The paper reports per-workload performance as the geometric mean of
per-application IPCs (Section VI-A).
"""

from __future__ import annotations

import math
from typing import Iterable


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; every value must be positive."""
    total = 0.0
    count = 0
    for value in values:
        if value <= 0:
            raise ValueError(f"geomean requires positive values, got {value}")
        total += math.log(value)
        count += 1
    if not count:
        raise ValueError("geomean of an empty sequence")
    return math.exp(total / count)
