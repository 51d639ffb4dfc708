"""Tests for trace records, file round-trip, and stream utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.trace import (
    AccessRecord,
    interleave,
    read_trace,
    take,
    write_trace,
)


records_strategy = st.lists(
    st.builds(
        AccessRecord,
        address=st.integers(min_value=0, max_value=2**40),
        is_write=st.booleans(),
        icount_gap=st.integers(min_value=0, max_value=10_000),
    ),
    max_size=200,
)


class TestAccessRecord:
    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            AccessRecord(address=-1)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            AccessRecord(address=0, icount_gap=-1)

    def test_shifted(self):
        record = AccessRecord(100, True, 7)
        shifted = record.shifted(28)
        assert shifted == AccessRecord(128, True, 7)

    def test_frozen(self):
        record = AccessRecord(0)
        with pytest.raises(AttributeError):
            record.address = 5


class TestTraceIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.gz"
        records = [
            AccessRecord(0x1000, False, 3),
            AccessRecord(0x2040, True, 0),
        ]
        assert write_trace(path, records) == 2
        assert list(read_trace(path)) == records

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.gz"
        write_trace(path, [])
        assert list(read_trace(path)) == []

    def test_rejects_bad_header(self, tmp_path):
        import gzip

        path = tmp_path / "bad.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("not-a-trace\n")
        with pytest.raises(ValueError):
            list(read_trace(path))

    def test_rejects_malformed_record(self, tmp_path):
        import gzip

        path = tmp_path / "malformed.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("#repro-trace-v1\n")
            handle.write("deadbeef 1\n")
        with pytest.raises(ValueError):
            list(read_trace(path))

    @given(records_strategy)
    def test_round_trip_property(self, records):
        import io
        import gzip as gz

        # Round-trip through an in-memory temporary file.
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.gz")
            write_trace(path, records)
            assert list(read_trace(path)) == records


class TestStreams:
    def test_take_limits(self):
        records = [AccessRecord(i) for i in range(10)]
        assert len(list(take(records, 3))) == 3

    def test_take_zero(self):
        assert list(take([AccessRecord(0)], 0)) == []

    def test_take_negative_rejected(self):
        with pytest.raises(ValueError):
            list(take([], -1))

    def test_interleave_orders_by_instruction_progress(self):
        fast_miss = [AccessRecord(i, icount_gap=1) for i in range(3)]
        slow_miss = [AccessRecord(100 + i, icount_gap=10) for i in range(3)]
        merged = list(interleave([fast_miss, slow_miss]))
        # The low-gap core issues its three accesses before the other
        # core's second access (progress 1,2,3 < 20).
        first_four_cores = [core for core, _ in merged[:4]]
        assert first_four_cores.count(0) == 3

    def test_interleave_preserves_all_records(self):
        streams = [
            [AccessRecord(i, icount_gap=3) for i in range(5)],
            [AccessRecord(100 + i, icount_gap=7) for i in range(4)],
        ]
        merged = list(interleave(streams))
        assert len(merged) == 9
        assert sorted(r.address for _, r in merged) == sorted(
            r.address for s in streams for r in s
        )

    def test_interleave_empty_streams(self):
        assert list(interleave([[], []])) == []

    @given(
        st.lists(
            st.lists(
                st.builds(
                    AccessRecord,
                    address=st.integers(min_value=0, max_value=1000),
                    icount_gap=st.integers(min_value=1, max_value=50),
                ),
                max_size=20,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_interleave_per_core_order_preserved(self, streams):
        merged = list(interleave(streams))
        for core_id, stream in enumerate(streams):
            replayed = [r for core, r in merged if core == core_id]
            assert replayed == stream
