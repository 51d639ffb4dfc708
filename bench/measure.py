"""Measurement primitives of the benchmark: order statistics and spans.

Everything here is pure and in-memory so the harness and its tests
share one definition of each number:

* :func:`nearest_rank`, :func:`quartiles` and :func:`tail_rung` — the
  percentile rules (a tail is reported at the highest percentile that
  still has at least ten samples beyond it, with the count);
* :class:`HostSpeed` — samples of a fixed calibration kernel taken at
  quiet points of a run, which scale each measured time to a reference
  host speed;
* :class:`SpanRecorder` — named spans with a parent and a trace id,
  kept in memory and written out once as Chrome-trace JSON (open it in
  Perfetto); :func:`self_times` gives each span's duration minus the
  part of its interval that its children cover.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile of ``count``."""
    return min(count, max(1, math.ceil(pct / 100.0 * count)))


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the set at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    return float(sorted(samples)[_rank(len(samples), pct) - 1])


def beyond(samples: Sequence[float], pct: float) -> int:
    """How many samples rank after the ``pct`` percentile (by position,
    so tied values do not change the count)."""
    return len(samples) - _rank(len(samples), pct)


def tail_rung(count: int) -> float:
    """The highest :data:`TAIL_LADDER` percentile with at least
    :data:`TAIL_BEYOND` of ``count`` samples ranked beyond it (the
    median when no rung has).  Workloads apply it to the fewest
    operations a run makes, so every run reports the same percentile."""
    for pct in TAIL_LADDER:
        if count - _rank(count, pct) >= TAIL_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Rounds of :func:`calibration_kernel` per run, and runs per sample
#: (a sample is their median, so one preempted run cannot skew it).
CAL_ROUNDS = 6000
CAL_RUNS = 5

#: One calibration sample at reference speed: the median over 300
#: samples on the 2-vCPU 2.1 GHz Linux VM the baselines were recorded on.
REFERENCE_CAL_S = 0.001

#: The calibration kernel's working set, allocated once.
_CAL_TABLE = list(range(4096))


def calibration_kernel(rounds: int = CAL_ROUNDS) -> int:
    """Fixed interpreter-bound work independent of the program: integer
    arithmetic and list indexing that allocate no container, so its
    speed does not depend on the garbage collector's or the allocator's
    state (a dict-and-heap kernel ran 1.8x slower when sampled back to
    back than after a pause)."""
    table = _CAL_TABLE
    total = 0
    index = 1
    for i in range(rounds):
        index = (index * 1103515245 + 12345) & 4095
        total += table[index] ^ i
        table[index] = total & 0xFFFF
    return total


class HostSpeed:
    """Calibration samples taken next to the measured work.

    On a shared host the same work runs 10-80% slower for seconds to
    minutes while neighbours are busy (one cell measured 0.31-0.60 s in
    one minute, with CPU time moving alike, so process time is no
    escape).  Scaling a measured time by the reference sample over the
    mean of the samples taken just before and just after it reports the
    time at reference speed; for a Figure-18 pass this cut the spread
    over ten seeds from 15% to 3%.  Samples are taken only where the
    measured program is idle, so they neither slow it nor are slowed
    by it, and their own time is kept out of every measurement
    (:meth:`spent`; in a traced pass each sample is a
    ``bench.calibrate`` span).
    """

    def __init__(self, recorder: Optional["SpanRecorder"] = None) -> None:
        #: Per sample: the median time of one calibration run.
        self.samples: List[float] = []
        #: Per sample: the wall time taking it cost (all its runs).
        self.costs: List[float] = []
        self.recorder = recorder

    def sample(self) -> None:
        start = time.perf_counter()
        if self.recorder is None:
            runs = self._runs()
        else:
            with self.recorder.span("bench.calibrate"):
                runs = self._runs()
        self.samples.append(statistics.median(runs))
        self.costs.append(time.perf_counter() - start)

    def spent(self, first: int, last: int) -> float:
        """Wall time taking samples ``first`` to ``last`` cost, to take
        out of a timed interval that contains them."""
        return sum(self.costs[first:last + 1])

    @staticmethod
    def _runs() -> List[float]:
        runs = []
        for _ in range(CAL_RUNS):
            start = time.perf_counter()
            calibration_kernel()
            runs.append(time.perf_counter() - start)
        return runs

    def between(self, first: int, last: int) -> float:
        """Factor for work done between samples ``first`` and ``last``."""
        return REFERENCE_CAL_S / statistics.fmean(self.samples[first:last + 1])

    def factor(self) -> float:
        """Factor for work spread over all the samples."""
        return self.between(0, len(self.samples) - 1)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    """One timed interval.  Times are ``time.perf_counter`` seconds."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    trace_id: str = ""
    pid: int = 0
    tid: int = 0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trace_id": self.trace_id,
            "pid": self.pid,
            "tid": self.tid,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(**data)  # type: ignore[arg-type]


class SpanRecorder:
    """In-memory span store with a per-thread parent stack.

    A span's parent is the innermost span open on the same thread, or
    :attr:`default_parent` on a thread with none open (client threads
    of a pass); its trace id is inherited from the parent unless given.
    Spans are indexed by position in :attr:`spans`, which is what
    ``parent`` refers to.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.default_parent: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace_id: str = "", **args: object) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.default_parent
        if not trace_id and parent is not None:
            trace_id = self.spans[parent].trace_id
        span = Span(
            name,
            time.perf_counter(),
            parent=parent,
            trace_id=trace_id,
            pid=os.getpid(),
            tid=threading.get_ident(),
            args=dict(args),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, **args: object) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.args.update(args)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    def span(self, name: str, trace_id: str = "", **args: object):
        """Context manager form of :meth:`open`/:meth:`close`."""
        return _SpanContext(self, name, trace_id, args)

    def adopt(self, spans: Iterable[Span], fork_point: int) -> None:
        """Adopt spans a forked worker recorded after inheriting the
        first ``fork_point`` spans: indices below it still name the
        same spans here, later ones are re-based onto the end."""
        with self._lock:
            base = len(self.spans)
            for span in spans:
                if span.parent is not None and span.parent >= fork_point:
                    span.parent = base + span.parent - fork_point
                self.spans.append(span)


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str, trace_id: str,
                 args: Dict[str, object]) -> None:
        self.recorder = recorder
        self.name = name
        self.trace_id = trace_id
        self.args = args
        self.index = -1

    def __enter__(self) -> int:
        self.index = self.recorder.open(self.name, self.trace_id, **self.args)
        return self.index

    def __exit__(self, *exc_info: object) -> None:
        self.recorder.close(self.index)


def covered(
    intervals: Iterable[Tuple[float, float]], low: float, high: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    return children


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    clipped to it (children on other threads may overlap each other)."""
    children = children_of(spans)
    return [
        span.duration
        - covered(
            ((spans[c].start, spans[c].end) for c in children.get(i, [])),
            span.start,
            span.end,
        )
        for i, span in enumerate(spans)
    ]


def chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """Chrome-trace (Perfetto-loadable) JSON of complete ``X`` events,
    microseconds from the earliest span."""
    origin = min((span.start for span in spans), default=0.0)
    events = []
    for index, span in enumerate(spans):
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": span.pid,
                "tid": span.tid,
                "args": {
                    **span.args,
                    "trace_id": span.trace_id,
                    "span": index,
                    "parent": span.parent,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans)))
