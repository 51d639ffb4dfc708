"""Hypothesis property tests for the chunked replay kernel, the
columnar trace layer and the bulk statistics accumulators.

These pin the parities the chunked kernel leans on at arbitrary
shapes, not just the shapes the simulators happen to produce today:
the kernel matches the scalar reference with and without a pager at
any core count, warmup and run length; ``RecordBatch`` column surgery
(records/concat/buffer round trips) is lossless, workload batch
streams replay the exact scalar RNG order, and
:meth:`Histogram.observe_array`, :meth:`CounterSet.add_many` and
:meth:`CounterSet.add_repeat` are bit-identical to their scalar
per-value loops.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import FlatMemory
from repro.experiments.runner import SMOKE_SCALE
from repro.sim import simulate
from repro.stats import CounterSet
from repro.stats.histogram import Histogram
from repro.telemetry.bus import EventBus
from repro.telemetry.recorder import EventLog
from repro.trace.batch import RecordBatch
from repro.trace.records import AccessRecord
from repro.workloads import benchmark, build_workload
from tests.conftest import tiny_scale

SMOKE_CONFIG = SMOKE_SCALE.config()

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

records_strategy = st.lists(
    st.builds(
        AccessRecord,
        address=st.integers(min_value=0, max_value=(1 << 48) - 1),
        is_write=st.booleans(),
        icount_gap=st.integers(min_value=0, max_value=1 << 20),
    ),
    max_size=200,
)

finite_floats = st.floats(
    allow_nan=False,
    allow_infinity=False,
    width=64,
    min_value=-1e12,
    max_value=1e12,
)

sorted_bounds = st.lists(
    finite_floats, min_size=1, max_size=8, unique=True
).map(sorted)

#: Non-negative values of very different magnitudes, where a left fold,
#: a compensated sum and a pairwise sum round differently.
mixed_magnitudes = st.one_of(
    st.floats(min_value=0.0, max_value=1e-12),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=1e15, max_value=1e18),
)

signed_mixed_magnitudes = st.one_of(
    finite_floats,
    mixed_magnitudes,
    mixed_magnitudes.map(lambda value: -value),
)


def assert_batches_equal(a: RecordBatch, b: RecordBatch) -> None:
    np.testing.assert_array_equal(a.addresses, b.addresses)
    np.testing.assert_array_equal(a.icount_gaps, b.icount_gaps)
    np.testing.assert_array_equal(a.is_writes, b.is_writes)


# ----------------------------------------------------------------------
# Chunked kernel == scalar reference at arbitrary run shapes
# ----------------------------------------------------------------------


class TestChunkedKernelShapes:
    """``kernel="auto"`` against the scalar loop on a flat device whose
    capacity ranges from the whole address space (no pager) down to one
    page (every access faults), at 1-12 cores, zero or short warmups
    and short or chunk-spanning runs."""

    #: OS-visible fraction of the total capacity; 1.0 is pager-free.
    FRACTIONS = (1.0, 1e-7, 1e-3, 0.02, 0.6)

    @staticmethod
    def _run(fraction, num_copies, warmup, accesses, name, kernel):
        config = SMOKE_CONFIG
        capacity = max(
            int(config.total_capacity_bytes * fraction), config.page_bytes
        )
        workload = build_workload(
            config,
            benchmark(name),
            num_copies=num_copies,
            seed=SMOKE_SCALE.seed,
        )
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        result = simulate(
            FlatMemory(config, capacity_bytes=capacity),
            workload,
            accesses_per_core=accesses,
            warmup_per_core=warmup,
            telemetry=bus,
            kernel=kernel,
        )
        events = [event.to_dict() for event in log.events]
        return json.dumps(result.to_dict(), sort_keys=True), events

    @settings(max_examples=30, deadline=None)
    @given(
        fraction=st.sampled_from(FRACTIONS),
        num_copies=st.integers(min_value=1, max_value=12),
        warmup=st.integers(min_value=0, max_value=64),
        accesses=st.integers(min_value=1, max_value=160),
        name=st.sampled_from(["mcf", "lbm", "stream"]),
    )
    def test_auto_matches_scalar(
        self, fraction, num_copies, warmup, accesses, name
    ):
        shape = (fraction, num_copies, warmup, accesses, name)
        assert self._run(*shape, "auto") == self._run(*shape, "scalar")


# ----------------------------------------------------------------------
# RecordBatch round trips
# ----------------------------------------------------------------------


class TestRecordBatchProperties:
    @given(records=records_strategy)
    def test_records_round_trip(self, records):
        batch = RecordBatch.from_records(records)
        assert list(batch.records()) == records
        assert_batches_equal(
            RecordBatch.from_records(batch.records()), batch
        )

    @given(
        records=records_strategy,
        cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=5),
    )
    def test_slice_concat_round_trip(self, records, cuts):
        """Splitting a batch at arbitrary row boundaries and
        re-concatenating the pieces restores the original columns."""
        batch = RecordBatch.from_records(records)
        edges = [0, *sorted({min(c, len(batch)) for c in cuts}), len(batch)]
        pieces = [
            RecordBatch(
                addresses=batch.addresses[lo:hi],
                icount_gaps=batch.icount_gaps[lo:hi],
                is_writes=batch.is_writes[lo:hi],
            )
            for lo, hi in zip(edges, edges[1:])
        ]
        assert_batches_equal(RecordBatch.concat(pieces), batch)

    def test_concat_of_nothing_is_empty(self):
        assert len(RecordBatch.concat([])) == 0


# ----------------------------------------------------------------------
# stream_batches vs streams: same records, same RNG order
# ----------------------------------------------------------------------


class TestStreamBatchOrder:
    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(["mcf", "bwaves", "stream"]),
        accesses=st.integers(min_value=1, max_value=300),
        num_copies=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1 << 16),
    )
    def test_batches_replay_scalar_rng_order(
        self, name, accesses, num_copies, seed
    ):
        """Flattening every core's batch stream yields exactly the
        scalar stream's records, in order — the RNG draw sequence is
        shared, not merely equivalent in distribution."""
        scale = tiny_scale(
            accesses=accesses, warmup=0, num_copies=num_copies, seed=seed
        )

        def build():
            return build_workload(
                scale.config(),
                benchmark(name),
                num_copies=num_copies,
                seed=seed,
            )

        scalar = [list(core) for core in build().streams(accesses)]
        batched = [
            [
                record
                for chunk in core_stream
                for record in chunk.records()
            ]
            for core_stream in build().stream_batches(accesses)
        ]
        assert batched == scalar


# ----------------------------------------------------------------------
# Histogram: bulk observe == scalar record, bit for bit
# ----------------------------------------------------------------------


class TestHistogramProperties:
    @given(
        bounds=sorted_bounds,
        values=st.lists(signed_mixed_magnitudes, min_size=1, max_size=300),
    )
    def test_observe_array_matches_scalar_record(self, bounds, values):
        scalar = Histogram(bounds)
        bulk = Histogram(bounds)
        for value in values:
            scalar.record(value)
        bulk.observe_array(values)
        assert bulk.count == scalar.count
        assert bulk.buckets() == scalar.buckets()
        # Float exactness, not approx: the bulk path folds the running
        # total in the same sequential order as the scalar loop.
        assert bulk.mean == scalar.mean
        assert bulk.minimum == scalar.minimum
        assert bulk.maximum == scalar.maximum

    @given(
        bounds=sorted_bounds,
        chunks=st.lists(
            st.lists(finite_floats, min_size=1, max_size=50),
            min_size=1,
            max_size=6,
        ),
    )
    def test_chunked_observe_matches_one_shot(self, bounds, chunks):
        """observe_array over chunks == one flat observe_array — the
        batched kernel feeds per-chunk latency arrays and must not
        depend on chunking."""
        flat = Histogram(bounds)
        chunked = Histogram(bounds)
        flat.observe_array([v for chunk in chunks for v in chunk])
        for chunk in chunks:
            chunked.observe_array(chunk)
        assert chunked.count == flat.count
        assert chunked.buckets() == flat.buckets()
        assert chunked.mean == flat.mean

    @given(values=st.lists(finite_floats, min_size=1, max_size=20))
    def test_percentile_stays_within_range(self, values):
        hist = Histogram.linear(-1e12, 1e12, 4)
        hist.observe_array(values)
        assert hist.percentile(0.0) <= hist.percentile(1.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)


# ----------------------------------------------------------------------
# CounterSet: bulk folds == scalar add, bit for bit
# ----------------------------------------------------------------------


class TestCounterFoldProperties:
    @given(
        start=mixed_magnitudes,
        values=st.lists(mixed_magnitudes, max_size=300),
    )
    def test_add_many_matches_scalar_add(self, start, values):
        bulk = CounterSet({"k": start})
        scalar = CounterSet({"k": start})
        bulk.add_many("k", values)
        for value in values:
            scalar.add("k", value)
        assert bulk["k"] == scalar["k"]

    @given(
        start=mixed_magnitudes,
        amount=mixed_magnitudes,
        count=st.integers(min_value=0, max_value=600),
    )
    def test_add_repeat_matches_scalar_add(self, start, amount, count):
        bulk = CounterSet({"k": start})
        scalar = CounterSet({"k": start})
        bulk.add_repeat("k", amount, count)
        for _ in range(count):
            scalar.add("k", amount)
        assert bulk["k"] == scalar["k"]
