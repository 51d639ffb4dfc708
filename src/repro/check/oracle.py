"""Differential and metamorphic oracles over the execution paths.

The codebase has many ways to produce one
:class:`~repro.sim.SimulationResult`: the scalar reference loop, the
chunked fast kernel (with or without its pager), worker processes
replaying the parent's published trace arena, inline serial execution,
warm :class:`ResultCache` replays, and the :mod:`repro.serve` round
trip.  The paper's claims rest on all of them being *the same
simulation*; :func:`run_execution_paths` runs
every applicable one for a cell and reduces each to canonical digests,
and :func:`run_invariants` adds metamorphic properties no single path
can check against itself (seed determinism, telemetry transparency,
epoch additivity, warmup-boundary kernel parity, coalesced-response
byte equality).

Everything here is pure measurement: callers (the check runner, the
CLI, tests) compare the returned digests and decide pass/fail.
"""

from __future__ import annotations

import dataclasses
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.canonical import events_digest, payload_digest, result_digest
from repro.experiments.designs import kernel_decision
from repro.runtime import ResultCache, SweepExecutor
from repro.runtime.cells import simulate_cell
from repro.telemetry import EventBus
from repro.telemetry.events import EpochSample, PageFaultEvent, SegmentSwap
from repro.telemetry.recorder import EventLog, TimelineRecorder

#: Path names of the differential oracle, in execution order.  Which
#: ones apply to a cell depends on its kernel decision and on the
#: ``pool``/``serve`` switches.
PATH_SCALAR = "kernel:scalar"
PATH_SERIAL = "executor:serial-no-arena"
PATH_POOL_ARENA = "executor:pool-arena"
PATH_CACHE_COLD = "cache:cold"
PATH_CACHE_WARM = "cache:warm"
PATH_SERVE = "serve:roundtrip"


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
        return {
            "path": self.path,
            "result_digest": self.result_digest,
            "events_digest": self.events_digest,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class InvariantResult:
    """One metamorphic invariant's verdict for one cell."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


def _cell_scale(scale: Any, workload: str) -> Any:
    """The cell's single-workload scale (what ``run_cells`` sees)."""
    return dataclasses.replace(scale, benchmarks=(workload,))


def _captured(
    scale: Any, design: str, workload: str, kernel: str = "auto"
) -> Tuple[Any, List[Any]]:
    """Simulate once with event capture → ``(result, events)``."""
    bus = EventBus()
    log = bus.subscribe(EventLog())
    result = simulate_cell(
        scale, design, workload, telemetry=bus, kernel=kernel
    )
    return result, list(log.events)


def _executor_path(
    scale: Any,
    design: str,
    workload: str,
    *,
    jobs: int,
    arena: bool,
    cache: Optional[ResultCache] = None,
) -> Tuple[Any, List[Any], SweepExecutor]:
    """One cell through the sweep runtime → result, events, executor."""
    executor = SweepExecutor(
        jobs=jobs,
        cache=cache,
        faults=None,
        telemetry=EventBus(),
        arena=arena,
    )
    results = executor.run_cells(
        _cell_scale(scale, workload), [(design, workload)]
    )
    events = executor.events.get((design, workload), [])
    return results[(design, workload)], list(events), executor


def run_execution_paths(
    scale: Any,
    design: str,
    workload: str,
    *,
    pool: bool = True,
    serve: bool = True,
    scratch_dir: Optional[Path] = None,
) -> List[PathResult]:
    """Run every applicable execution path for one cell.

    Always: the forced-scalar reference, the auto-selected kernel (when
    it differs), and the inline serial executor without an arena.  With
    ``pool``: a 2-worker process pool replaying the trace arena.
    A cold-then-warm :class:`ResultCache` pair runs in ``scratch_dir``
    (or a temporary directory).  With ``serve``: a full
    :mod:`repro.serve` HTTP round trip on an ephemeral port.

    The caller asserts that every returned digest agrees; this function
    only measures.
    """
    paths: List[PathResult] = []

    # 1. The scalar reference loop.
    result, events = _captured(scale, design, workload, kernel="scalar")
    paths.append(
        PathResult(PATH_SCALAR, result_digest(result), events_digest(events))
    )

    # 2. The chunked kernel, under its auto-selected case label.
    decision = kernel_decision(design, scale.config())
    result, events = _captured(scale, design, workload, kernel=decision.kernel)
    paths.append(
        PathResult(
            f"kernel:{decision.kernel}",
            result_digest(result),
            events_digest(events),
            detail=decision.reason,
        )
    )

    # 3. The sweep runtime, inline serial, arena off.
    result, events, _ = _executor_path(
        scale, design, workload, jobs=1, arena=False
    )
    paths.append(
        PathResult(PATH_SERIAL, result_digest(result), events_digest(events))
    )

    # 4. Worker processes replaying the inherited trace arena.
    if pool:
        result, events, _ = _executor_path(
            scale, design, workload, jobs=2, arena=True
        )
        paths.append(
            PathResult(
                PATH_POOL_ARENA,
                result_digest(result),
                events_digest(events),
            )
        )

    # 5. Cold-then-warm result cache: the warm run must replay the cold
    # run's bytes without simulating.
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        result, events, _ = _executor_path(
            scale, design, workload, jobs=1, arena=False,
            cache=ResultCache(Path(tmp)),
        )
        paths.append(
            PathResult(
                PATH_CACHE_COLD,
                result_digest(result),
                events_digest(events),
            )
        )
        result, _, warm = _executor_path(
            scale, design, workload, jobs=1, arena=False,
            cache=ResultCache(Path(tmp)),
        )
        simulated = warm.metrics.simulated
        paths.append(
            PathResult(
                PATH_CACHE_WARM,
                result_digest(result),
                None,
                detail=(
                    "served from disk"
                    if simulated == 0
                    else f"unexpected: {simulated} cell(s) re-simulated"
                ),
            )
        )
        if simulated != 0:
            # Force disagreement so the caller flags the cell: a warm
            # cache that re-simulates is itself a conformance failure.
            paths[-1] = dataclasses.replace(
                paths[-1], result_digest="cache-warm-resimulated"
            )

    # 6. The serving layer, end to end over HTTP.
    if serve:
        paths.append(_serve_path(scale, design, workload))

    return paths


def _serve_request(scale: Any, design: str, workload: str) -> Dict[str, Any]:
    return {
        "design": design,
        "workload": workload,
        "fast_mb": scale.fast_mb,
        "ratio": scale.ratio,
        "accesses_per_core": scale.accesses_per_core,
        "warmup_per_core": scale.warmup_per_core,
        "num_copies": scale.num_copies,
        "seed": scale.seed,
    }


def _serve_path(scale: Any, design: str, workload: str) -> PathResult:
    from repro.serve import Client, ServerThread

    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(
            port=0, jobs=1, cache=None, checkpoint_dir=Path(tmp)
        ) as server:
            client = Client("127.0.0.1", server.port)
            body = client.simulate(_serve_request(scale, design, workload))
    return PathResult(
        PATH_SERVE, payload_digest(body["result"]), None
    )


# ----------------------------------------------------------------------
# Metamorphic invariants
# ----------------------------------------------------------------------

def check_seed_determinism(
    scale: Any, design: str, workload: str
) -> InvariantResult:
    """Two fresh runs of the same seeded cell are byte-identical."""
    first, first_events = _captured(scale, design, workload)
    second, second_events = _captured(scale, design, workload)
    same = result_digest(first) == result_digest(second) and events_digest(
        first_events
    ) == events_digest(second_events)
    return InvariantResult(
        "seed-determinism",
        same,
        "" if same else "repeat run diverged from itself",
    )


def check_telemetry_transparency(
    scale: Any, design: str, workload: str
) -> InvariantResult:
    """Attaching a telemetry bus never changes the result."""
    observed, _ = _captured(scale, design, workload)
    silent = simulate_cell(scale, design, workload)
    same = result_digest(observed) == result_digest(silent)
    return InvariantResult(
        "telemetry-transparency",
        same,
        "" if same else "telemetry-on result differs from telemetry-off",
    )


def check_epoch_consistency(
    scale: Any, design: str, workload: str
) -> InvariantResult:
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
    result, events = _captured(scale, design, workload)
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
    decision = kernel_decision(design, scale.config())
    problems: List[str] = []
    for warmup in (0, 1):
        probe = dataclasses.replace(scale, warmup_per_core=warmup)
        reference, ref_events = _captured(
            probe, design, workload, kernel="scalar"
        )
        fast, fast_events = _captured(
            probe, design, workload, kernel=decision.kernel
        )
        if result_digest(reference) != result_digest(fast) or events_digest(
            ref_events
        ) != events_digest(fast_events):
            problems.append(
                f"{decision.kernel} diverges from scalar at warmup={warmup}"
            )
    return InvariantResult(
        "warmup-boundary", not problems, "; ".join(problems)
    )


def check_coalesced_bytes(
    scale: Any, design: str, workload: str, *, clients: int = 3
) -> InvariantResult:
    """Identical concurrent serve requests share one byte-identical
    response body."""
    from repro.serve import Client, ServerThread

    payload = dict(_serve_request(scale, design, workload), wait=True)
    bodies: List[bytes] = [b""] * clients
    errors: List[str] = []

    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(
            port=0, jobs=1, cache=None, checkpoint_dir=Path(tmp)
        ) as server:
            def fetch(slot: int) -> None:
                try:
                    client = Client("127.0.0.1", server.port)
                    _, _, raw = client.request(
                        "POST", "/v1/simulate", payload
                    )
                    bodies[slot] = raw
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
    identical = len(set(bodies)) == 1 and bodies[0] != b""
    return InvariantResult(
        "coalesced-bytes",
        identical,
        "" if identical else
        f"{len(set(bodies))} distinct response bodies across "
        f"{clients} identical requests",
    )


def run_invariants(
    scale: Any,
    design: str,
    workload: str,
    *,
    serve: bool = True,
) -> List[InvariantResult]:
    """The metamorphic pack for one cell."""
    invariants = [
        check_seed_determinism(scale, design, workload),
        check_telemetry_transparency(scale, design, workload),
        check_epoch_consistency(scale, design, workload),
        check_warmup_boundary(scale, design, workload),
    ]
    if serve:
        invariants.append(check_coalesced_bytes(scale, design, workload))
    return invariants


__all__ = [
    "InvariantResult",
    "PATH_CACHE_COLD",
    "PATH_CACHE_WARM",
    "PATH_POOL_ARENA",
    "PATH_SCALAR",
    "PATH_SERIAL",
    "PATH_SERVE",
    "PathResult",
    "check_coalesced_bytes",
    "check_epoch_consistency",
    "check_seed_determinism",
    "check_telemetry_transparency",
    "check_warmup_boundary",
    "run_execution_paths",
    "run_invariants",
]
