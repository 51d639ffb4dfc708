"""Stream utilities: interleaving per-core traces, bounding them, and
replaying precompiled column batches."""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.trace.batch import RecordBatch
from repro.trace.records import AccessRecord


def replay_batches(
    batch: RecordBatch, batch_lengths: Sequence[int]
) -> Iterator[RecordBatch]:
    """Re-slice a concatenated column run into its original chunks.

    Inverse of :meth:`RecordBatch.concat`: ``batch_lengths`` records the
    chunk boundaries the generator originally produced, and each yielded
    chunk is a zero-copy view into ``batch``'s columns — this is how a
    published arena trace replays without touching the payload.
    """
    total = int(sum(batch_lengths))
    if total != len(batch):
        raise ValueError(
            f"batch_lengths sum to {total}, batch holds {len(batch)} records"
        )
    start = 0
    for length in batch_lengths:
        end = start + int(length)
        yield RecordBatch(
            addresses=batch.addresses[start:end],
            icount_gaps=batch.icount_gaps[start:end],
            is_writes=batch.is_writes[start:end],
        )
        start = end


def take(records: Iterable[AccessRecord], limit: int) -> Iterator[AccessRecord]:
    """At most the first ``limit`` records."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    for index, record in enumerate(records):
        if index >= limit:
            return
        yield record


def interleave(
    streams: Sequence[Iterable[AccessRecord]],
) -> Iterator[Tuple[int, AccessRecord]]:
    """Merge per-core streams by instruction progress.

    Yields ``(core_id, record)`` in the order the accesses would be
    issued if all cores commit instructions at the same rate — the same
    round-robin-by-icount interleaving GEM5's simple multi-core
    interleaving produces for rate-mode workloads.
    """
    iterators: List[Iterator[AccessRecord]] = [iter(s) for s in streams]
    heap: List[Tuple[int, int, AccessRecord]] = []
    progress = [0] * len(iterators)
    for core_id, iterator in enumerate(iterators):
        record = next(iterator, None)
        if record is not None:
            progress[core_id] += record.icount_gap
            heap.append((progress[core_id], core_id, record))
    heapq.heapify(heap)
    while heap:
        _, core_id, record = heapq.heappop(heap)
        yield core_id, record
        nxt = next(iterators[core_id], None)
        if nxt is not None:
            progress[core_id] += nxt.icount_gap
            heapq.heappush(heap, (progress[core_id], core_id, nxt))
