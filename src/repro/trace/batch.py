"""Struct-of-arrays record batches for the chunked replay kernel.

A :class:`RecordBatch` carries the same information as a run of
:class:`~repro.trace.records.AccessRecord` objects — address, write
flag, instruction gap — as three parallel NumPy arrays.  Generators
produce batches directly (one per drawn access plan), the batched
simulation kernel consumes them without materialising per-record
objects, and :meth:`RecordBatch.records` adapts a batch back into the
scalar iterator protocol for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.trace.records import AccessRecord

@dataclass(frozen=True)
class RecordBatch:
    """A contiguous run of per-core trace records, column-major.

    Attributes
    ----------
    addresses:
        ``int64`` OS-physical byte addresses.
    icount_gaps:
        ``int64`` instructions committed since each stream's previous
        record.
    is_writes:
        ``bool`` store flags.
    """

    addresses: np.ndarray
    icount_gaps: np.ndarray
    is_writes: np.ndarray

    def __post_init__(self) -> None:
        if not (
            len(self.addresses) == len(self.icount_gaps) == len(self.is_writes)
        ):
            raise ValueError("batch columns must have equal length")

    def __len__(self) -> int:
        return len(self.addresses)

    def records(self) -> Iterator[AccessRecord]:
        """Scalar-compatibility view: yield one record per row."""
        for address, is_write, gap in zip(
            self.addresses.tolist(),
            self.is_writes.tolist(),
            self.icount_gaps.tolist(),
        ):
            yield AccessRecord(
                address=address, is_write=is_write, icount_gap=gap
            )

    @classmethod
    def from_records(cls, records: Iterable[AccessRecord]) -> "RecordBatch":
        """Columnise an iterable of scalar records."""
        rows = list(records)
        return cls(
            addresses=np.asarray(
                [r.address for r in rows], dtype=np.int64
            ),
            icount_gaps=np.asarray(
                [r.icount_gap for r in rows], dtype=np.int64
            ),
            is_writes=np.asarray(
                [r.is_write for r in rows], dtype=bool
            ),
        )

    @property
    def nbytes(self) -> int:
        """Raw column payload size."""
        return int(
            self.addresses.nbytes
            + self.icount_gaps.nbytes
            + self.is_writes.nbytes
        )

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches into one contiguous column run.

        The inverse (restoring the original chunk boundaries) is
        :func:`repro.trace.streams.replay_batches`.
        """
        if not batches:
            return cls(
                addresses=np.empty(0, dtype=np.int64),
                icount_gaps=np.empty(0, dtype=np.int64),
                is_writes=np.empty(0, dtype=bool),
            )
        return cls(
            addresses=np.concatenate([b.addresses for b in batches]),
            icount_gaps=np.concatenate([b.icount_gaps for b in batches]),
            is_writes=np.concatenate([b.is_writes for b in batches]),
        )
