"""Span self-time arithmetic and the percentile rules."""

import pytest

from layers import attributed_share
from measure import (
    Span,
    SpanRecorder,
    beyond,
    nearest_rank,
    quartiles,
    self_times,
    tail_rung,
)


def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),   # overlaps a (another thread)
        Span("c", 8.0, 12.0, parent=0),  # runs past the parent's end
        Span("d", 1.5, 2.5, parent=1),   # grandchild: only a loses it
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_recorder_nests_spans_per_thread_and_inherits_trace_ids():
    recorder = SpanRecorder()
    with recorder.span("outer", trace_id="run/cell"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert inner.parent == 0 and outer.parent is None
    assert inner.trace_id == "run/cell"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_adopted_worker_spans_keep_parents_across_the_fork_point():
    recorder = SpanRecorder()
    recorder.spans = [Span("pass", 0.0, 9.0), Span("sweep", 1.0, 8.0, 0)]
    recorder.spans.append(Span("later", 8.5, 8.6, 0))  # parent-side growth
    worker = [Span("cell", 2.0, 4.0, parent=1), Span("sim", 2.5, 3.5, parent=2)]
    recorder.adopt(worker, fork_point=2)
    assert [s.parent for s in recorder.spans[3:]] == [1, 3]


def test_attributed_share_leaves_harness_spans_out_wherever_they_nest():
    spans = [
        Span("bench.pass", 0.0, 10.0),
        Span("runtime.sweep", 0.0, 6.0, parent=0),
        Span("bench.digest", 6.0, 8.0, parent=0),
        Span("bench.calibrate", 1.0, 2.0, parent=1),
    ]
    assert attributed_share(spans, 0) == pytest.approx(5.0 / 7.0)


def test_nearest_rank_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 100) == 5.0
    assert nearest_rank(values, 0) == 1.0
    assert quartiles(values) == (1.5, 3.0, 4.5)


@pytest.mark.parametrize(
    "count, expected",
    [
        (1000, 99.0),  # exactly ten ranked beyond p99
        (500, 95.0),   # p99 has five beyond: step down
        (84, 75.0),    # p90 has eight beyond
        (5, 50.0),     # too few for any rung: the median
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(
    count, expected
):
    assert tail_rung(count) == expected
    if count >= 21:
        assert beyond(range(count), expected) >= 10


def test_beyond_counts_by_rank_so_ties_do_not_move_the_tail():
    samples = [1.0] * 95 + [5.0] * 5
    assert beyond(samples, 90.0) == 10
    assert nearest_rank(samples, 90.0) == 1.0
