"""Differential and metamorphic oracles over the execution paths.

The codebase has several ways to produce one
:class:`~repro.sim.SimulationResult`: the scalar reference loop, the
chunked fast kernel (with or without its pager), the sweep runtime
inline or in worker processes replaying the parent's published trace
arena, warm :class:`ResultCache` replays, and the :mod:`repro.serve`
round trip.  The paper's claims rest on all of them being *the same
simulation*; :func:`run_execution_paths_batch` runs each distinct one
once for every cell of a batch (each sweep path as one sweep over the
batch, the scalar reference per cell) and reduces it to canonical
digests, and :func:`run_invariants` adds metamorphic properties no
single path can check against itself (seed determinism, telemetry transparency, epoch
additivity, warmup-boundary kernel parity, coalesced-response byte
equality).  The invariants read one captured chunked run per cell,
and every invariant that compares two runs uses :func:`same_bytes`.

Everything here is pure measurement: callers (the check runner, the
CLI, tests) compare the returned digests and decide pass/fail.
"""

from __future__ import annotations

import dataclasses
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.check.canonical import events_digest, payload_digest, result_digest
from repro.check.goldens import scale_identity
from repro.runtime import CellStat, ResultCache, SweepExecutor
from repro.runtime.cells import simulate_cell
from repro.runtime.metrics import SOURCE_DISK
from repro.telemetry import EventBus
from repro.telemetry.events import EpochSample, PageFaultEvent, SegmentSwap
from repro.telemetry.recorder import EventLog, TimelineRecorder

#: Path names of the differential oracle.
#: :func:`run_execution_paths_batch` runs the last five, in this order;
#: the check runner adds the golden sweep's own digests as the first.
PATH_SWEEP = "executor:sweep"
PATH_SCALAR = "kernel:scalar"
PATH_SERIAL = "executor:serial-cold-cache"
PATH_CACHE_WARM = "cache:warm"
PATH_POOL_ARENA = "executor:pool-arena"
PATH_SERVE = "serve:roundtrip"

#: A ``(design, workload)`` cell.
Cell = Tuple[str, str]


@dataclass(frozen=True)
class PathResult:
    """One execution path's canonical digests for one cell.

    ``events_digest`` is ``None`` for paths that legitimately produce
    no event stream (a warm-cache replay, the serve round trip) — they
    participate only in the result comparison.
    """

    path: str
    result_digest: str
    events_digest: Optional[str] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class InvariantResult:
    """One metamorphic invariant's verdict for one cell."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def verdict(name: str, passed: bool, failure: str) -> InvariantResult:
    """A named verdict whose detail is ``failure`` unless it passed."""
    return InvariantResult(name, passed, "" if passed else failure)


class Run(NamedTuple):
    """One direct simulation of a cell and its canonical digests
    (``events`` and the events digest are ``None`` with telemetry
    off)."""

    result: Any
    events: Optional[List[Any]]
    digests: Tuple[str, Optional[str]]


def simulate_run(
    scale: Any,
    design: str,
    workload: str,
    *,
    kernel: str = "auto",
    telemetry: bool = True,
) -> Run:
    """Simulate one cell directly, capturing its events unless
    ``telemetry`` is off."""
    if not telemetry:
        result = simulate_cell(scale, design, workload, kernel=kernel)
        return Run(result, None, (result_digest(result), None))
    bus = EventBus()
    log = bus.subscribe(EventLog())
    result = simulate_cell(
        scale, design, workload, telemetry=bus, kernel=kernel
    )
    events = list(log.events)
    return Run(result, events, (result_digest(result), events_digest(events)))


def same_bytes(reference: Run, candidate: Run) -> bool:
    """The byte-identity comparator: equal result digests, and equal
    event digests wherever both runs captured a stream."""
    return all(
        a == b
        for a, b in zip(reference.digests, candidate.digests)
        if a is not None and b is not None
    )


def kernel_parity(
    scale: Any, design: str, workload: str, chunked: Optional[Run] = None
) -> bool:
    """The forced-scalar reference matches the chunked run (simulated
    here unless the caller already captured it)."""
    if chunked is None:
        chunked = simulate_run(scale, design, workload)
    return same_bytes(
        simulate_run(scale, design, workload, kernel="scalar"), chunked
    )


def check_repeatability(
    scale: Any, design: str, workload: str, chunked: Run
) -> List[InvariantResult]:
    """Seed determinism and telemetry transparency of ``chunked``, the
    cell's captured chunked run: a captured repeat must equal it byte
    for byte, and a telemetry-off run must equal its result."""
    repeat = simulate_run(scale, design, workload)
    silent = simulate_run(scale, design, workload, telemetry=False)
    return [
        verdict(
            "seed-determinism",
            same_bytes(chunked, repeat),
            "repeat run diverged from itself",
        ),
        verdict(
            "telemetry-transparency",
            same_bytes(chunked, silent),
            "telemetry-on result differs from telemetry-off",
        ),
    ]


# ----------------------------------------------------------------------
# The differential execution-path oracle
# ----------------------------------------------------------------------

def digested_sweep(
    executor: SweepExecutor, scale: Any, cells: Sequence[Cell]
) -> Tuple[Dict[Cell, Any], Dict[Cell, str], Dict[Cell, str]]:
    """Run ``cells`` on ``executor`` (which must capture telemetry) →
    ``(results, events digests, sources)`` keyed by cell, the source
    being each cell's :attr:`CellStat.source`.  Each stream is digested
    and dropped as its cell lands, so a sweep holds one stream at a
    time, not the whole batch's."""
    streams: Dict[Cell, str] = {}
    sources: Dict[Cell, str] = {}

    def digest_and_drop(stat: CellStat, done: int, total: int) -> None:
        cell = (stat.design, stat.workload)
        sources[cell] = stat.source
        streams[cell] = events_digest(executor.events.pop(cell, []))

    executor.on_cell = digest_and_drop
    results = executor.run_cells(scale, list(cells))
    return results, streams, sources


def _sweep(
    scale: Any,
    cells: Sequence[Cell],
    *,
    jobs: int,
    arena: bool,
    cache: Optional[ResultCache] = None,
) -> Tuple[Dict[Cell, Any], Dict[Cell, str], Dict[Cell, str]]:
    """All ``cells`` through one fault-free sweep with telemetry
    capture (see :func:`digested_sweep`)."""
    executor = SweepExecutor(
        jobs=jobs, cache=cache, faults=None, telemetry=EventBus(), arena=arena
    )
    return digested_sweep(executor, scale, cells)


def _sweep_paths(
    scale: Any, cells: Sequence[Cell]
) -> Dict[Cell, List[PathResult]]:
    """Every path but the scalar one, each run once over all ``cells``
    → each cell's results in path order."""
    with tempfile.TemporaryDirectory() as tmp:
        serial, serial_streams, _ = _sweep(
            scale, cells, jobs=1, arena=False, cache=ResultCache(Path(tmp))
        )
        warm, _, sources = _sweep(
            scale, cells, jobs=1, arena=False, cache=ResultCache(Path(tmp))
        )
    pool, pool_streams, _ = _sweep(scale, cells, jobs=2, arena=True)
    with _server() as client:
        served = {
            cell: client.simulate(_serve_request(scale, *cell))["result"]
            for cell in cells
        }
    # A warm cache that re-simulates a cell is itself a conformance
    # failure: its digest is forced to disagree so the caller flags
    # that cell (and only that one).
    resimulated = PathResult(
        PATH_CACHE_WARM, "cache-warm-resimulated",
        detail="unexpected: 1 cell(s) re-simulated",
    )
    return {
        cell: [
            PathResult(
                PATH_SERIAL, result_digest(serial[cell]), serial_streams[cell],
                detail="jobs=1, no arena, cold cache",
            ),
            PathResult(
                PATH_CACHE_WARM, result_digest(warm[cell]),
                detail="served from disk",
            ) if sources[cell] == SOURCE_DISK else resimulated,
            PathResult(
                PATH_POOL_ARENA, result_digest(pool[cell]), pool_streams[cell],
                detail="jobs=2, arena",
            ),
            PathResult(PATH_SERVE, payload_digest(served[cell])),
        ]
        for cell in cells
    }


def run_execution_paths_batch(
    scale: Any,
    cells: Sequence[Cell],
    *,
    on_cell: Optional[Callable[[int, Cell], None]] = None,
) -> Dict[Cell, List[PathResult]]:
    """Run each distinct execution path once over ``cells`` → each
    cell's :class:`PathResult` list, in path order.

    The sweep paths run once each over the whole batch: the inline
    serial sweep runtime with the arena off, writing a fresh
    :class:`ResultCache`; a second executor that must replay that cache
    without simulating (judged per cell); a 2-worker process pool
    replaying the trace arena; and one :mod:`repro.serve` server on an
    ephemeral port, sent one request per cell.  The forced-scalar
    reference then runs per cell, after ``on_cell(index, cell)``.

    The caller asserts that every returned digest agrees; this function
    only measures.
    """
    swept = _sweep_paths(scale, cells)
    paths: Dict[Cell, List[PathResult]] = {}
    for index, cell in enumerate(cells):
        if on_cell is not None:
            on_cell(index, cell)
        scalar = simulate_run(scale, *cell, kernel="scalar")
        paths[cell] = [PathResult(PATH_SCALAR, *scalar.digests), *swept[cell]]
    return paths


def run_execution_paths(
    scale: Any, design: str, workload: str
) -> List[PathResult]:
    """:func:`run_execution_paths_batch` for one cell."""
    cell = (design, workload)
    return run_execution_paths_batch(scale, [cell])[cell]


def _serve_request(scale: Any, design: str, workload: str) -> Dict[str, Any]:
    return {"design": design, "workload": workload, **scale_identity(scale)}


@contextmanager
def _server() -> Iterator[Any]:
    """A serial, cache-less :mod:`repro.serve` server on an ephemeral
    port → a :class:`~repro.serve.Client` bound to it."""
    from repro.serve import Client, ServerThread

    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(
            port=0, jobs=1, cache=None, checkpoint_dir=Path(tmp)
        ) as server:
            yield Client("127.0.0.1", server.port)


# ----------------------------------------------------------------------
# Metamorphic invariants
# ----------------------------------------------------------------------

def check_epoch_consistency(scale: Any, chunked: Run) -> InvariantResult:
    """Epoch samples are additive and consistent with the result.

    Cumulative counters must be non-decreasing, per-epoch differences
    must telescope exactly back to the final cumulative values (every
    sampled quantity is an integral count, so float equality is
    exact), the final sample must reproduce the result's totals
    (accesses, hit rate, swaps), the page-fault event count must match
    the final sample's fault tally, and the
    :class:`~repro.telemetry.TimelineRecorder` must fold the stream
    into exactly one timeline row per epoch.
    """
    result, events, _ = chunked
    samples = [e for e in events if isinstance(e, EpochSample)]
    faults = [e for e in events if isinstance(e, PageFaultEvent)]
    problems: List[str] = []
    if not samples:
        return InvariantResult(
            "epoch-consistency", False, "no epoch samples emitted"
        )
    last = samples[-1]

    prev = EpochSample(0.0, epoch=-1, accesses=0.0, fast_hits=0.0,
                       swaps=0.0, faults=0)
    sums = {"accesses": 0.0, "fast_hits": 0.0, "swaps": 0.0, "faults": 0}
    for sample in samples:
        for name in sums:
            delta = getattr(sample, name) - getattr(prev, name)
            if delta < 0:
                problems.append(f"{name} decreased at epoch {sample.epoch}")
            sums[name] += delta
        prev = sample
    for name, total in sums.items():
        if total != getattr(last, name):
            problems.append(
                f"per-epoch {name} deltas sum to {total}, "
                f"final cumulative is {getattr(last, name)}"
            )

    measured = scale.accesses_per_core * scale.num_copies
    if last.accesses != measured:
        problems.append(
            f"final accesses {last.accesses} != measured window {measured}"
        )
    rate = last.fast_hits / last.accesses if last.accesses else 0.0
    if rate != result.fast_hit_rate:
        problems.append(
            f"sampled hit rate {rate} != result {result.fast_hit_rate}"
        )
    if last.swaps != result.swaps:
        problems.append(f"sampled swaps {last.swaps} != result {result.swaps}")
    if len(faults) != last.faults:
        problems.append(
            f"{len(faults)} page-fault events vs sampled tally {last.faults}"
        )

    recorder = TimelineRecorder()
    for event in events:
        recorder(event)
    if recorder.epochs != len(samples):
        problems.append(
            f"timeline folded {recorder.epochs} epochs from "
            f"{len(samples)} samples"
        )
    swap_events = sum(1 for e in events if isinstance(e, SegmentSwap))
    timeline_swaps = sum(recorder.timeline.series("swaps"))
    if timeline_swaps != swap_events:
        problems.append(
            f"timeline swap total {timeline_swaps} != "
            f"{swap_events} swap events"
        )
    return InvariantResult(
        "epoch-consistency", not problems, "; ".join(problems)
    )


def check_warmup_boundary(
    scale: Any, design: str, workload: str
) -> InvariantResult:
    """Kernel parity holds at awkward warmup boundaries.

    The chunked kernel must cut the measured window at exactly the
    scalar loop's record — including a zero-length warmup and a
    one-access warmup that ends mid-chunk.
    """
    problems = [
        f"chunked kernel diverges from scalar at warmup={warmup}"
        for warmup in (0, 1)
        if not kernel_parity(
            dataclasses.replace(scale, warmup_per_core=warmup),
            design,
            workload,
        )
    ]
    return InvariantResult(
        "warmup-boundary", not problems, "; ".join(problems)
    )


def check_coalesced_bytes(
    scale: Any, design: str, workload: str, *, clients: int = 3
) -> InvariantResult:
    """Identical concurrent serve requests share one byte-identical
    response body."""
    payload = dict(_serve_request(scale, design, workload), wait=True)
    bodies: List[bytes] = [b""] * clients
    errors: List[str] = []

    with _server() as client:
        def fetch(slot: int) -> None:
            try:
                _, _, bodies[slot] = client.request(
                    "POST", "/v1/simulate", payload
                )
            except Exception as exc:  # pragma: no cover — network
                errors.append(f"client {slot}: {exc!r}")

        threads = [
            threading.Thread(target=fetch, args=(slot,))
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    if errors:
        return InvariantResult("coalesced-bytes", False, "; ".join(errors))
    return verdict(
        "coalesced-bytes",
        len(set(bodies)) == 1 and bodies[0] != b"",
        f"{len(set(bodies))} distinct response bodies across "
        f"{clients} identical requests",
    )


def run_invariants(
    scale: Any, design: str, workload: str
) -> List[InvariantResult]:
    """The metamorphic pack for one cell, over one captured chunked
    run."""
    chunked = simulate_run(scale, design, workload)
    return [
        *check_repeatability(scale, design, workload, chunked),
        check_epoch_consistency(scale, chunked),
        check_warmup_boundary(scale, design, workload),
        check_coalesced_bytes(scale, design, workload),
    ]


__all__ = [
    "InvariantResult",
    "PATH_CACHE_WARM",
    "PATH_POOL_ARENA",
    "PATH_SCALAR",
    "PATH_SERIAL",
    "PATH_SERVE",
    "PATH_SWEEP",
    "PathResult",
    "Run",
    "check_coalesced_bytes",
    "check_epoch_consistency",
    "check_repeatability",
    "check_warmup_boundary",
    "digested_sweep",
    "kernel_parity",
    "run_execution_paths",
    "run_execution_paths_batch",
    "run_invariants",
    "same_bytes",
    "simulate_run",
    "verdict",
]
