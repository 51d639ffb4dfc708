"""Memory-access trace records, file round-trip, and stream utilities.

The simulator is trace-driven (the substitution for the paper's GEM5
full-system runs): each core consumes a stream of
:class:`~repro.trace.records.AccessRecord` — an LLC-level memory access
annotated with the number of instructions committed since the previous
access.  Streams can be synthesised (:mod:`repro.workloads`), written to
and replayed from disk (:mod:`repro.trace.io`), and interleaved across
cores (:func:`repro.trace.streams.interleave`).
"""

from repro.trace.batch import RecordBatch
from repro.trace.records import AccessRecord
from repro.trace.io import read_trace, write_trace
from repro.trace.streams import (
    interleave,
    replay_batches,
    take,
)

__all__ = [
    "AccessRecord",
    "RecordBatch",
    "read_trace",
    "write_trace",
    "interleave",
    "replay_batches",
    "take",
]
