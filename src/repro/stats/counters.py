"""Named event counters.

Every component of the simulator owns a :class:`CounterSet`.  Counters are
created lazily on first increment, names are dot-separated
(``"dram.fast.row_hits"``), and sets can be merged, snapshotted, and
diffed — the experiment runners diff per-epoch snapshots to build
timelines.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterator, Mapping, Sequence

import numpy as np

#: Version of the :meth:`CounterSet.to_dict` wire format.
COUNTERS_SCHEMA_VERSION = 1

#: :func:`fold_repeat` folds counts below this in a Python loop, larger
#: ones with :func:`fold_sum` (equal cost, ~3 us, at 128).
_LOOP_MAX_REPEATS = 128

def fold_sum(start: float, values: Sequence[float]) -> float:
    """``start + values[0] + values[1] + ...`` added strictly left to
    right, bit-identical to a Python ``for`` loop of ``+=``.

    ``np.add.accumulate`` is a sequential loop; neither ``sum()``
    (compensated since Python 3.12) nor ``np.sum`` (pairwise) is.
    """
    terms = np.empty(len(values) + 1)
    terms[0] = start
    terms[1:] = values
    return float(np.add.accumulate(terms)[-1])


def fold_repeat(start: float, amount: float, count: int) -> float:
    """``start`` plus ``count`` sequential additions of ``amount`` (a
    ``+=`` loop, or the same additions through :func:`fold_sum`)."""
    if count < _LOOP_MAX_REPEATS:
        for _ in range(count):
            start += amount
        return start
    return fold_sum(start, np.full(count, amount, dtype=np.float64))


class CounterSet:
    """A bag of named, monotonically increasing numeric counters."""

    def __init__(self, initial: Mapping[str, float] | None = None) -> None:
        self._counts: Dict[str, float] = defaultdict(float)
        if initial:
            for name, value in initial.items():
                self._counts[name] = float(value)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``name`` by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._counts[name] += amount

    def add_many(self, name: str, amounts: Sequence[float]) -> None:
        """Fold ``amounts`` into ``name`` one by one, left to right.

        Bulk analogue of calling :meth:`add` per element, with a single
        dict access for the whole batch.  The accumulation is a
        sequential left fold from the counter's current value
        (:func:`fold_sum`), so the result is bit-identical to the
        per-element loop — the property the batched simulation kernel's
        parity guarantee rests on.
        """
        values = np.asarray(amounts, dtype=np.float64)
        negative = np.flatnonzero(values < 0)
        if negative.size:
            raise ValueError(
                f"counter increments must be >= 0, "
                f"got {amounts[negative[0]]}"
            )
        self._counts[name] = fold_sum(self._counts[name], values)

    def add_repeat(self, name: str, amount: float, count: int) -> None:
        """Apply ``count`` sequential increments of the same ``amount``.

        Equivalent to ``add_many(name, [amount] * count)``; used to
        flush deferred constant-sized contributions (e.g. per-burst DRAM
        bus occupancy) while keeping the float accumulation order of the
        scalar path.
        """
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        if count < 0:
            raise ValueError(f"repeat count must be >= 0, got {count}")
        self._counts[name] = fold_repeat(self._counts[name], amount, count)

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0.0)

    def __setitem__(self, name: str, value: float) -> None:
        """Store a running total seeded from ``self[name]``."""
        self._counts[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counts))

    def __len__(self) -> int:
        return len(self._counts)

    def items(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._counts.items()))

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator``, 0.0 when the denominator is zero."""
        denom = self[denominator]
        return self[numerator] / denom if denom else 0.0

    def fraction_of_total(self, name: str, *names: str) -> float:
        """``name`` as a fraction of the sum of ``name`` plus ``names``."""
        total = self[name] + sum(self[other] for other in names)
        return self[name] / total if total else 0.0

    def merge(self, other: "CounterSet") -> "CounterSet":
        """Return a new set with the element-wise sum of both sets."""
        merged = CounterSet(self._counts)
        for name, value in other._counts.items():
            merged._counts[name] += value
        return merged

    def snapshot(self) -> Dict[str, float]:
        return dict(self._counts)

    def diff(self, earlier: Mapping[str, float]) -> Dict[str, float]:
        """Per-counter delta since an earlier :meth:`snapshot`."""
        out: Dict[str, float] = {}
        for name, value in self._counts.items():
            delta = value - earlier.get(name, 0.0)
            if delta:
                out[name] = delta
        return out

    def reset(self) -> None:
        self._counts.clear()

    def __eq__(self, other: object) -> bool:
        """Two sets are equal when their non-zero counts agree.

        Zero-valued entries are ignored so a counter that was
        incremented by 0 compares equal to one that was never touched —
        the distinction is invisible through every read path.
        """
        if not isinstance(other, CounterSet):
            return NotImplemented
        mine = {k: v for k, v in self._counts.items() if v}
        theirs = {k: v for k, v in other._counts.items() if v}
        return mine == theirs

    __hash__ = None  # mutable: identity hashing would violate eq

    def to_dict(self) -> Dict[str, Any]:
        """Versioned plain-dict form (the disk-cache wire format)."""
        return {
            "schema": COUNTERS_SCHEMA_VERSION,
            "counts": {k: v for k, v in self._counts.items() if v},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CounterSet":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions."""
        schema = data.get("schema")
        if schema != COUNTERS_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported CounterSet schema {schema!r} "
                f"(expected {COUNTERS_SCHEMA_VERSION})"
            )
        return cls(data.get("counts", {}))

    def scoped(self, prefix: str) -> "ScopedCounters":
        """A view that prepends ``prefix + '.'`` to every counter name."""
        return ScopedCounters(self, prefix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in self.items())
        return f"CounterSet({inner})"


class ScopedCounters:
    """Prefixing facade over a :class:`CounterSet`.

    Lets a sub-component increment ``"row_hits"`` while the shared set
    records ``"dram.fast.row_hits"``.
    """

    def __init__(self, parent: CounterSet, prefix: str) -> None:
        self._parent = parent
        self._prefix = prefix

    def add(self, name: str, amount: float = 1.0) -> None:
        self._parent.add(f"{self._prefix}.{name}", amount)

    def __getitem__(self, name: str) -> float:
        return self._parent[f"{self._prefix}.{name}"]

    def ratio(self, numerator: str, denominator: str) -> float:
        return self._parent.ratio(
            f"{self._prefix}.{numerator}", f"{self._prefix}.{denominator}"
        )
