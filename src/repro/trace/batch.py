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
from typing import Dict, Iterable, Iterator, Sequence

import numpy as np

from repro.trace.records import AccessRecord

#: Byte alignment of every column placed in an exported buffer.
BUFFER_ALIGNMENT = 8


def align_offset(offset: int) -> int:
    """Round ``offset`` up to the next :data:`BUFFER_ALIGNMENT` boundary."""
    return -(-offset // BUFFER_ALIGNMENT) * BUFFER_ALIGNMENT


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

    # -- buffer export/attach (shared-memory arena) --------------------

    @property
    def nbytes(self) -> int:
        """Raw column payload size (excluding alignment padding)."""
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

    @staticmethod
    def buffer_layout(records: int, offset: int = 0) -> Dict[str, int]:
        """Column byte offsets for ``records`` rows placed at ``offset``.

        The layout dict is the unit of the arena manifest: it is
        JSON-safe and is all :meth:`attach` needs to rebuild zero-copy
        views over an exported buffer.  ``end`` is the aligned offset
        just past the block.
        """
        if records < 0:
            raise ValueError("records must be non-negative")
        addresses = align_offset(offset)
        icount_gaps = addresses + records * 8
        is_writes = icount_gaps + records * 8
        return {
            "records": records,
            "addresses": addresses,
            "icount_gaps": icount_gaps,
            "is_writes": is_writes,
            "end": align_offset(is_writes + records),
        }

    def export_into(self, buffer, layout: Dict[str, int]) -> None:
        """Copy the three columns into ``buffer`` at ``layout``'s
        offsets (produced by :meth:`buffer_layout` for ``len(self)``
        rows)."""
        records = layout["records"]
        if records != len(self):
            raise ValueError(
                f"layout is for {records} records, batch has {len(self)}"
            )
        np.frombuffer(
            buffer, dtype=np.int64, count=records, offset=layout["addresses"]
        )[:] = self.addresses
        np.frombuffer(
            buffer, dtype=np.int64, count=records, offset=layout["icount_gaps"]
        )[:] = self.icount_gaps
        np.frombuffer(
            buffer, dtype=bool, count=records, offset=layout["is_writes"]
        )[:] = self.is_writes

    @classmethod
    def attach(
        cls, buffer, layout: Dict[str, int], writable: bool = False
    ) -> "RecordBatch":
        """Zero-copy view over columns previously :meth:`export_into`-ed
        at ``layout``'s offsets (read-only unless ``writable``)."""
        records = layout["records"]

        def view(dtype, key: str) -> np.ndarray:
            array = np.frombuffer(
                buffer, dtype=dtype, count=records, offset=layout[key]
            )
            if not writable:
                array = array.view()
                array.flags.writeable = False
            return array

        return cls(
            addresses=view(np.int64, "addresses"),
            icount_gaps=view(np.int64, "icount_gaps"),
            is_writes=view(bool, "is_writes"),
        )
