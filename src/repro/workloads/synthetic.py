"""Synthetic LLC-miss stream generation.

The generator reproduces the statistical properties the paper's results
depend on:

* **working-set phases** — at any moment the workload touches a bounded
  working set of segments (loop-based HPC codes touch their arrays over
  and over); every ``phase_accesses`` accesses a ``churn`` fraction of
  the working set is replaced with fresh zipf-drawn segments.  Phase
  rotation is what forces policies to re-adapt: PoM pays its competing
  counter threshold on every newly hot segment, caches adapt instantly
  (Section III-D), and AutoNUMA decays once the fast node fills.
* **temporal reuse skew** — working-set membership and intra-set
  popularity both follow a zipf law (``zipf_alpha``), so capturing the
  hot segments in stacked DRAM yields a high hit rate;
* **spatial locality** — accesses within a segment come in sequential
  64B-line runs of average ``run_length``, which is what makes
  2KB-segment designs (PoM, Chameleon) beat 64B designs (Alloy, CAMEO):
  one segment fill captures a whole run, a line cache misses on every
  new line.

Everything is seeded and deterministic; numpy draws access plans in
batches so pure-Python simulation stays fast.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.config import CACHELINE_BYTES
from repro.trace.batch import RecordBatch
from repro.trace.records import AccessRecord
from repro.workloads.suites import BenchmarkSpec


def zipf_weights(count: int, alpha: float) -> np.ndarray:
    """Normalised zipf(alpha) weights for ranks 1..count."""
    if count <= 0:
        raise ValueError("count must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


class SyntheticAccessGenerator:
    """Seeded access-record generator over an allocated segment set."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        segments: Sequence[int],
        segment_bytes: int,
        seed: int = 0,
        batch: int = 2048,
    ) -> None:
        if not segments:
            raise ValueError("workload owns no segments")
        if segment_bytes < CACHELINE_BYTES:
            raise ValueError("segment must hold at least one line")
        self.spec = spec
        self.segment_bytes = segment_bytes
        self.lines_per_segment = segment_bytes // CACHELINE_BYTES
        self._segments = np.asarray(sorted(segments), dtype=np.int64)
        self._rng = np.random.default_rng(seed)
        self._batch = batch
        count = len(self._segments)
        # Global popularity: zipf over a seeded permutation of the owned
        # segments (rank r -> segment _ranking[r]).
        self._ranking = self._rng.permutation(count)
        self._global_weights = zipf_weights(count, spec.zipf_alpha)
        # Current working set: indices into the rank space.
        ws_size = max(1, int(round(count * spec.working_set_fraction)))
        self._ws_size = min(ws_size, count)
        self._working_set = self._draw_members(self._ws_size)
        self._ws_weights = zipf_weights(self._ws_size, spec.zipf_alpha)
        self._accesses_in_phase = 0

    # ------------------------------------------------------------------

    def _draw_members(self, size: int) -> np.ndarray:
        """Draw ``size`` distinct rank indices, zipf-weighted."""
        count = len(self._segments)
        if size >= count:
            return np.arange(count)
        return self._rng.choice(
            count, size=size, replace=False, p=self._global_weights
        )

    def _rotate_phase(self) -> None:
        """Replace a ``churn`` fraction of the working set."""
        replace = int(round(self._ws_size * self.spec.churn))
        if replace <= 0:
            return
        keep_mask = np.ones(self._ws_size, dtype=bool)
        victims = self._rng.choice(self._ws_size, size=replace, replace=False)
        keep_mask[victims] = False
        kept = self._working_set[keep_mask]
        candidates = self._draw_members(min(len(self._segments), replace * 4))
        fresh: List[int] = []
        kept_set = set(int(v) for v in kept)
        for candidate in candidates:
            value = int(candidate)
            if value not in kept_set:
                fresh.append(value)
                kept_set.add(value)
            if len(fresh) >= replace:
                break
        while len(fresh) < replace:
            value = int(self._rng.integers(0, len(self._segments)))
            if value not in kept_set:
                fresh.append(value)
                kept_set.add(value)
        self._working_set = np.concatenate(
            [kept, np.asarray(fresh, dtype=self._working_set.dtype)]
        )

    # ------------------------------------------------------------------

    def stream_batches(self, num_accesses: int) -> Iterator[RecordBatch]:
        """Yield ``num_accesses`` LLC-miss records as column batches.

        One batch per drawn access plan.  The RNG call sequence is
        identical to the historical scalar emission loop: all plan
        draws happen before the plan's records exist, and the phase
        rotations a plan's records trigger are performed in order
        before the next plan is drawn (record emission itself never
        consumed entropy), so record streams are bit-identical to the
        pre-batch generator.
        """
        if num_accesses < 0:
            raise ValueError("num_accesses must be non-negative")
        remaining = num_accesses
        gap = self.spec.icount_gap
        run_length = self.spec.run_length
        lines_per_segment = self.lines_per_segment
        while remaining > 0:
            plan = min(self._batch, remaining)
            runs = max(1, plan // run_length)
            member_choices = self._rng.choice(
                self._ws_size, size=runs, p=self._ws_weights
            )
            rank_indices = self._working_set[member_choices]
            # A small cold tail touches the rest of the footprint
            # uniformly — the pages that page out first on a
            # capacity-limited system.
            if self.spec.tail_fraction > 0.0:
                tail_mask = (
                    self._rng.random(size=runs) < self.spec.tail_fraction
                )
                tail_count = int(tail_mask.sum())
                if tail_count:
                    rank_indices = rank_indices.copy()
                    rank_indices[tail_mask] = self._rng.integers(
                        0, len(self._segments), size=tail_count
                    )
            segment_ids = self._segments[self._ranking[rank_indices]]
            start_lines = self._rng.integers(
                0, lines_per_segment, size=runs
            )
            lengths = self._rng.geometric(
                1.0 / run_length, size=runs
            ).clip(1, lines_per_segment).astype(np.int64)
            writes = self._rng.random(size=runs) < self.spec.write_fraction

            # Flatten the runs into per-record columns, truncated to the
            # records the scalar loop would actually have emitted.
            run_starts = np.cumsum(lengths) - lengths
            run_index = np.repeat(
                np.arange(runs, dtype=np.int64), lengths
            )
            positions = (
                np.arange(run_index.size, dtype=np.int64)
                - np.repeat(run_starts, lengths)
            )
            emitted = min(run_index.size, remaining)
            if emitted < run_index.size:
                run_index = run_index[:emitted]
                positions = positions[:emitted]
            lines = (
                start_lines[run_index] + positions
            ) % lines_per_segment
            addresses = (
                segment_ids[run_index] * self.segment_bytes
                + lines * CACHELINE_BYTES
            )
            remaining -= emitted
            # Phase bookkeeping: each record increments the in-phase
            # count and rotates on reaching ``phase_accesses``, so a
            # batch of ``emitted`` records triggers a deterministic
            # number of rotations (performed in order, before the next
            # plan draws from the rotated working set).
            progressed = self._accesses_in_phase + emitted
            rotations = progressed // self.spec.phase_accesses
            self._accesses_in_phase = progressed % self.spec.phase_accesses
            for _ in range(rotations):
                self._rotate_phase()
            yield RecordBatch(
                addresses=addresses,
                icount_gaps=np.full(emitted, gap, dtype=np.int64),
                is_writes=writes[run_index],
            )

    def stream(self, num_accesses: int) -> Iterator[AccessRecord]:
        """Yield ``num_accesses`` LLC-miss records (scalar adapter)."""
        for batch in self.stream_batches(num_accesses):
            yield from batch.records()
