"""Fixed-bucket histogram for latency and size distributions."""

from __future__ import annotations

import bisect
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.stats.counters import fold_sum


class Histogram:
    """Histogram over half-open buckets ``[b[i], b[i+1])``.

    ``bounds`` are the interior bucket boundaries; samples below the first
    bound land in bucket 0, samples at or above the last bound land in the
    final (overflow) bucket.  Mean/total are tracked exactly, not from the
    bucketised values.
    """

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = list(bounds)
        if not ordered:
            raise ValueError("histogram needs at least one bucket boundary")
        if ordered != sorted(ordered):
            raise ValueError("bucket boundaries must be sorted")
        if len(set(ordered)) != len(ordered):
            raise ValueError("bucket boundaries must be distinct")
        self._bounds: List[float] = ordered
        self._buckets: List[int] = [0] * (len(ordered) + 1)
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None

    @classmethod
    def linear(cls, lo: float, hi: float, num_buckets: int) -> "Histogram":
        if num_buckets < 2 or hi <= lo:
            raise ValueError("need hi > lo and at least two buckets")
        step = (hi - lo) / num_buckets
        return cls([lo + i * step for i in range(1, num_buckets)])

    def record(self, value: float, weight: int = 1) -> None:
        index = bisect.bisect_right(self._bounds, value)
        self._buckets[index] += weight
        self._count += weight
        self._total += value * weight
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)

    def record_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def observe_array(self, values: Sequence[float]) -> None:
        """Bulk-record ``values`` (unit weight each).

        The bucket counts are accumulated with vectorised NumPy ops
        (``searchsorted(side='right')`` matches ``bisect_right`` index
        for index), while the exact running total is folded
        sequentially so the mean stays bit-identical to calling
        :meth:`record` per element — the batched simulation kernel
        relies on that parity.
        """
        if len(values) == 0:
            return
        array = np.asarray(values, dtype=np.float64)
        indices = np.searchsorted(self._bounds, array, side="right")
        for index, weight in enumerate(
            np.bincount(indices, minlength=len(self._buckets))
        ):
            self._buckets[index] += int(weight)
        self._count += len(array)
        self._total = fold_sum(self._total, array)
        lo = float(array.min())
        hi = float(array.max())
        self._min = lo if self._min is None else min(self._min, lo)
        self._max = hi if self._max is None else max(self._max, hi)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> float | None:
        return self._min

    @property
    def maximum(self) -> float | None:
        return self._max

    def buckets(self) -> List[Tuple[str, int]]:
        """(label, count) pairs, including under/overflow buckets."""
        labels = [f"<{self._bounds[0]:g}"]
        labels += [
            f"[{lo:g},{hi:g})"
            for lo, hi in zip(self._bounds, self._bounds[1:])
        ]
        labels.append(f">={self._bounds[-1]:g}")
        return list(zip(labels, self._buckets))

    def percentile(self, fraction: float) -> float:
        """Approximate percentile using bucket upper bounds."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if not self._count:
            return 0.0
        target = fraction * self._count
        running = 0
        for index, weight in enumerate(self._buckets):
            running += weight
            if running >= target:
                if index < len(self._bounds):
                    return self._bounds[index]
                return self._max if self._max is not None else self._bounds[-1]
        return self._max if self._max is not None else self._bounds[-1]
