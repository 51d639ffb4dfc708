"""Precompiled workload traces.

:func:`compile_trace` drains a workload's seeded generators once and
freezes the result as struct-of-arrays columns — the single source of
truth behind both replay paths: the trace arena
(:mod:`repro.runtime.arena`) publishes these columns once per sweep for
every cell to replay, and a cell that cannot attach simply regenerates
and gets byte-identical records (generation is deterministic in
``(spec, placement, seed)``).

The one sharp edge is partial replay: generator RNG plans are sized by
the *remaining* record count, so the first ``n`` records of a longer
compiled trace are **not** the records a fresh ``stream_batches(n)``
would produce.  A :class:`CompiledTrace` therefore refuses to serve any
request that is not exactly the record count it was compiled for —
silently serving a prefix would break the bit-identical sweep
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.trace.batch import RecordBatch
from repro.trace.records import AccessRecord
from repro.trace.streams import replay_batches


@dataclass(frozen=True)
class CoreTrace:
    """One core's full record run plus its original chunk boundaries."""

    batch: RecordBatch
    #: ``int64`` chunk sizes: the generator's plan boundaries, preserved
    #: so replay yields the exact batch sequence generation would.
    batch_lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def nbytes(self) -> int:
        return self.batch.nbytes + int(self.batch_lengths.nbytes)

    def batches(self) -> Iterator[RecordBatch]:
        """Replay the original generator batch sequence (zero-copy)."""
        return replay_batches(self.batch, self.batch_lengths.tolist())

    def records(self) -> Iterator[AccessRecord]:
        """Scalar-compatibility replay."""
        for chunk in self.batches():
            yield from chunk.records()


@dataclass(frozen=True)
class CompiledTrace:
    """A workload's trace, compiled once, replayable any number of times.

    Duck-compatible with the generator side of
    :class:`~repro.workloads.multiprog.MultiprogramWorkload`: the
    ``streams``/``stream_batches`` pair produces the same per-core
    iterators generation would — provided ``accesses_per_core`` matches
    :attr:`accesses_per_core` exactly (see the module docstring for why
    prefixes are refused).
    """

    workload: str
    accesses_per_core: int
    cores: Tuple[CoreTrace, ...]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def nbytes(self) -> int:
        """Column and chunk-boundary bytes across all cores."""
        return sum(core.nbytes for core in self.cores)

    def _check(self, accesses_per_core: int) -> None:
        if accesses_per_core != self.accesses_per_core:
            raise ValueError(
                f"trace for workload {self.workload!r} was compiled for "
                f"exactly {self.accesses_per_core} accesses per core; "
                f"{accesses_per_core} requested (prefix replay would "
                f"diverge from generation — recompile instead)"
            )

    def stream_batches(
        self, accesses_per_core: int
    ) -> List[Iterator[RecordBatch]]:
        self._check(accesses_per_core)
        return [core.batches() for core in self.cores]

    def streams(self, accesses_per_core: int) -> List[Iterator[AccessRecord]]:
        self._check(accesses_per_core)
        return [core.records() for core in self.cores]


def compile_trace(workload, accesses_per_core: int) -> CompiledTrace:
    """Drain ``workload``'s generators into a :class:`CompiledTrace`.

    Always compiles from the seeded generators (never from a trace the
    workload may already carry), so the compiled columns are exactly
    what per-cell generation would produce.
    """
    if accesses_per_core < 0:
        raise ValueError("accesses_per_core must be non-negative")
    cores = []
    for generator in workload.generators():
        chunks = list(generator.stream_batches(accesses_per_core))
        cores.append(
            CoreTrace(
                batch=RecordBatch.concat(chunks),
                batch_lengths=np.asarray(
                    [len(chunk) for chunk in chunks], dtype=np.int64
                ),
            )
        )
    return CompiledTrace(
        workload=workload.name,
        accesses_per_core=accesses_per_core,
        cores=tuple(cores),
    )


__all__ = ["CompiledTrace", "CoreTrace", "compile_trace"]
