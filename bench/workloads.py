"""The four benchmark workloads, each run in a fresh process.

``python bench/workloads.py --workload NAME --seed S --seconds T
--trace 0|1 [--setup-only]`` is the child side of ``bench/run.py``: it
sets the workload up, prints ``READY`` (the parent times spawn to that
line as set-up), measures, checks the outputs, and prints one
``RESULT {json}`` line.  Nothing else goes to standard output.  When
the program fails (a pass, the check or the set-up raises), the result
says so with ``correct`` false and the lost operations counted as
failed; the child itself still exits 0.

A workload is a fixed *pass* of work repeated until the next pass would
end after ``--seconds`` (always at least ``min_passes``), so every run
does whole passes and the per-pass wall time is comparable across runs:

============  ============================================  ==========
workload      one pass                                      operation
============  ============================================  ==========
fig18-serial  ``run_fig18`` at ``DEFAULT_SCALE``, jobs=1    figure cell
grid-pool     15 designs x 14 benchmarks at smoke size:     grid cell
              1 cold sweep (jobs=2, fresh cache, arena)
              then 20 warm sweeps (cache reads only)
serve-mixed   40 closed-loop requests from 2 clients to a   request
              ``repro.experiments serve`` subprocess
check-full    ``run_check(sample=0, fuzz=4, seed=S)``       check step
============  ============================================  ==========

Times are reported at reference host speed (:class:`measure.HostSpeed`).
``--trace 1`` runs untraced passes, passes with the span recorder of
:mod:`layers` installed and untraced passes again, then one traced
reduced pass of each other workload, and reports the per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"
GOLDENS = ROOT / "tests" / "goldens"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from measure import (  # noqa: E402
    HostSpeed,
    SpanRecorder,
    beyond,
    nearest_rank,
    tail_rung,
)

WORKLOADS = ("fig18-serial", "grid-pool", "serve-mixed", "check-full")

#: The benchmarks of the committed goldens (``SMOKE_SCALE``, seed 0).
GOLDEN_BENCHMARKS = ("mcf", "bwaves", "comd")

#: Cells re-simulated in-process with the scalar reference kernel after
#: timing, on every seed (recorded digests exist only for seeds 0, 1).
SPOT_CHECKS = 2


@dataclass
class PassResult:
    """One pass: its wall time, per-operation latencies and outputs.

    ``cold_ms`` are the latencies of operations that compute (figure
    cells, cold grid sweeps, new serve requests, check steps) and
    ``warm_ms`` those of operations answered from a cache (warm grid
    sweeps, repeated serve requests; empty where there are none).
    ``wall_s`` and the latencies are at reference host speed (see
    :class:`measure.HostSpeed`); ``measured_wall_s`` is the clock's.
    """

    wall_s: float
    cold_ms: List[float]
    attempted: int
    failed: int
    measured_wall_s: float
    warm_ms: List[float] = field(default_factory=list)
    outputs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """Everything a workload measured and checked in one run."""

    passes: List[PassResult] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Operations outside ``passes``: those of a pass that raised (all
    #: failed) and those of a traced run's reduced passes.
    more_attempted: int = 0
    more_failed: int = 0

    @property
    def attempted(self) -> int:
        return self.more_attempted + sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return self.more_failed + sum(p.failed for p in self.passes)


def harness(recorder: Optional[SpanRecorder]):
    """A ``bench.*`` span around the harness's own work inside a traced
    pass (kept out of the layer attribution), or nothing."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span("bench.digest")


def digest(result: Any) -> str:
    from repro.check.canonical import result_digest

    return result_digest(result)


def load_expected(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Per-cell digests recorded for ``seed``, when there are any."""
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def compare_digests(
    label: str, got: Dict[str, str], want: Dict[str, str]
) -> List[str]:
    if got == want:
        return []
    differing = sorted(
        cell for cell in set(got) | set(want) if got.get(cell) != want.get(cell)
    )
    return [
        f"{label}: {len(differing)} cell(s) differ, e.g. "
        + ", ".join(differing[:3])
    ]


def spot_check(scale: Any, digests: Dict[str, str], seed: int) -> List[str]:
    """Re-simulate a seeded sample of cells with the scalar reference
    kernel and compare digests (the oracle for unrecorded seeds)."""
    from repro.runtime.cells import simulate_cell

    rng = random.Random(f"bench.spot:{seed}")
    problems = []
    for cell in rng.sample(sorted(digests), min(SPOT_CHECKS, len(digests))):
        design, workload = cell.split("/")
        reference = simulate_cell(
            dataclasses.replace(scale, benchmarks=(workload,)),
            design, workload, kernel="scalar",
        )
        if digest(reference) != digests[cell]:
            problems.append(f"{cell}: differs from the scalar reference")
    return problems


# ----------------------------------------------------------------------
# fig18-serial
# ----------------------------------------------------------------------


class Fig18Serial:
    """Figure 18 regenerated serially at ``DEFAULT_SCALE`` without a
    result cache: the figure users wait for, nearly all simulation.

    ``benchmarks`` narrows the figure to fewer rows; a traced run of
    another workload uses that as its reduced pass of this one.
    """

    name = "fig18-serial"
    min_passes = 1
    #: One pass: 84 cells.
    tail_pct = tail_rung(84)

    def __init__(self, seed: int, benchmarks: Tuple[str, ...] = ()) -> None:
        from repro.experiments.designs import REGISTRY
        from repro.experiments.runner import DEFAULT_SCALE

        self.seed = seed
        self.scale = dataclasses.replace(
            DEFAULT_SCALE, benchmarks=benchmarks or DEFAULT_SCALE.benchmarks,
            seed=seed,
        )
        self.labels = REGISTRY.figure_labels("fig18")
        self.ops_per_pass = len(self.labels) * len(self.scale.benchmarks)

    def setup(self) -> None:
        from repro.experiments import figures  # noqa: F401 — import cost

    def run_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        from repro.experiments.figures import run_fig18
        from repro.experiments.runner import (
            clear_sweep_cache,
            run_design_sweep,
        )
        from repro.runtime import SweepExecutor

        clear_sweep_cache()
        speed = HostSpeed(recorder)
        speed.sample()
        # After each cell the serial sweep is idle: calibrate there, so
        # cell i lies between samples i and i + 1.
        executor = SweepExecutor(jobs=1, cache=None, faults=None,
                                 on_cell=lambda *_: speed.sample())
        start = time.perf_counter()
        figure = run_fig18(self.scale, executor=executor)
        # Every sample after the first was taken inside the sweep.
        wall = (time.perf_counter() - start
                - speed.spent(1, len(speed.samples) - 1))
        cells = executor.metrics.cells
        with harness(recorder):
            # The in-process sweep memo answers without simulating.
            results = run_design_sweep(self.scale, self.labels,
                                       executor=executor)
            digests = {f"{d}/{w}": digest(r) for (d, w), r in results.items()}
        clear_sweep_cache()
        latencies = [c.seconds * 1e3 * speed.between(i, i + 1)
                     for i, c in enumerate(cells)]
        between_cells = wall - sum(c.seconds for c in cells)
        return PassResult(
            wall_s=sum(latencies) / 1e3 + between_cells * speed.factor(),
            cold_ms=latencies,
            attempted=self.ops_per_pass,
            failed=self.ops_per_pass - len(results),
            measured_wall_s=wall,
            outputs={"digests": digests, "rows": figure.rows},
        )

    def verify(self, passes: List[PassResult]) -> List[str]:
        problems = []
        first = passes[0].outputs["digests"]
        for index, done in enumerate(passes[1:], 2):
            problems += compare_digests(
                f"pass {index} vs pass 1", done.outputs["digests"], first
            )
        rows = passes[0].outputs["rows"]
        if len(rows) != len(self.scale.benchmarks) + 1 or not all(
            value > 0 for row in rows for value in row[1:]
        ):
            problems.append("figure 18 rows are incomplete or non-positive")
        expected = load_expected(self.name, self.seed)
        if expected is not None and self.scale.benchmarks == _all_benchmarks():
            problems += compare_digests("recorded digests", first, expected)
        return problems + spot_check(self.scale, first, self.seed)

    def teardown(self) -> None:
        pass


def _all_benchmarks() -> Tuple[str, ...]:
    from repro.workloads import benchmark_names

    return tuple(benchmark_names())


# ----------------------------------------------------------------------
# grid-pool
# ----------------------------------------------------------------------


class GridPool:
    """The whole design registry over every benchmark at smoke size on
    a 2-worker pool: cells are ~15 ms, so worker spawn, pipes, pickling,
    the arena, kernel decisions and cache I/O dominate."""

    name = "grid-pool"
    jobs = 2
    warm_sweeps = 20
    min_passes = 1
    #: A grid cell's latency is its sweep's wall time over its cells
    #: (see :meth:`run_pass`), so a pass gives one cold sample.  A run of
    #: a few passes has too few for any tail rung: the tail is the
    #: median cold sweep.
    tail_pct = tail_rung(1)

    def __init__(
        self, seed: int, designs: Tuple[str, ...] = (),
        benchmarks: Tuple[str, ...] = (),
    ) -> None:
        from repro.experiments.designs import REGISTRY
        from repro.experiments.runner import SMOKE_SCALE

        self.seed = seed
        self.designs = designs or REGISTRY.labels()
        self.scale = dataclasses.replace(
            SMOKE_SCALE,
            benchmarks=benchmarks or _all_benchmarks(),
            seed=seed,
        )
        self.full = not designs and not benchmarks
        self.cells = len(self.designs) * len(self.scale.benchmarks)
        self.ops_per_pass = self.cells * (1 + self.warm_sweeps)

    def setup(self) -> None:
        from repro import runtime  # noqa: F401 — import cost

        OUT.mkdir(parents=True, exist_ok=True)

    def _sweep(self, cache_dir: Path):
        from repro.runtime import ResultCache, SweepExecutor

        executor = SweepExecutor(
            jobs=self.jobs, cache=ResultCache(cache_dir), arena=True,
            faults=None,
        )
        start = time.perf_counter()
        results = executor.run(self.scale, self.designs)
        return time.perf_counter() - start, results, executor.metrics

    def run_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        cells = self.cells
        # Calibrate between sweeps, when no worker runs: sweep j lies
        # between samples j and j + 1.
        speed = HostSpeed(recorder)
        speed.sample()
        with tempfile.TemporaryDirectory(dir=OUT, prefix="grid-") as tmp:
            cold_wall, cold, _ = self._sweep(Path(tmp))
            speed.sample()
            factor = speed.between(0, 1)
            # A sweep's cells run as one batch (two at a time cold, back
            # to back warm), so the latency of a cell is the sweep's wall
            # over its cells: what cells/s means to a user.
            cold_ms = [cold_wall / cells * 1e3 * factor]
            warm_ms = []
            measured = cold_wall
            wall = cold_wall * factor
            warm_digests = []
            resimulated = 0
            for sweep in range(1, self.warm_sweeps + 1):
                warm_wall, warm, warm_metrics = self._sweep(Path(tmp))
                speed.sample()
                factor = speed.between(sweep, sweep + 1)
                measured += warm_wall
                wall += warm_wall * factor
                warm_ms.append(warm_wall / cells * 1e3 * factor)
                resimulated += warm_metrics.simulated
                with harness(recorder):
                    warm_digests.append({f"{d}/{w}": digest(r)
                                         for (d, w), r in warm.items()})
        with harness(recorder):
            cold_digests = {f"{d}/{w}": digest(r) for (d, w), r in cold.items()}
        missing = cells - len(cold) + sum(cells - len(w) for w in warm_digests)
        return PassResult(
            wall_s=wall,
            cold_ms=cold_ms,
            warm_ms=warm_ms,
            attempted=self.ops_per_pass,
            failed=missing,
            measured_wall_s=measured,
            outputs={
                "cold": cold_digests,
                "warm": warm_digests,
                "resimulated": resimulated,
            },
        )

    def verify(self, passes: List[PassResult]) -> List[str]:
        from repro.check.goldens import GoldenStore

        problems = []
        first = passes[0].outputs["cold"]
        for index, done in enumerate(passes):
            if index:
                problems += compare_digests(
                    f"cold pass {index + 1} vs 1", done.outputs["cold"], first
                )
            for warm in done.outputs["warm"]:
                problems += compare_digests("warm sweep vs cold", warm, first)
            if done.outputs["resimulated"]:
                problems.append(
                    f"warm sweeps re-simulated "
                    f"{done.outputs['resimulated']} cell(s)"
                )
        expected = load_expected(self.name, self.seed)
        if expected is not None and self.full:
            problems += compare_digests("recorded digests", first, expected)
        if self.seed == 0:
            store = GoldenStore(GOLDENS)
            for workload in GOLDEN_BENCHMARKS:
                if workload not in self.scale.benchmarks:
                    continue
                for design in self.designs:
                    golden = store.get(self.scale, design, workload)
                    cell = f"{design}/{workload}"
                    if golden is None:
                        problems.append(f"{cell}: no golden in {GOLDENS}")
                    elif golden.result_digest != first.get(cell):
                        problems.append(f"{cell}: differs from its golden")
        return problems + spot_check(self.scale, first, self.seed)

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

SERVE_DESIGNS = (
    "PoM", "Chameleon", "Chameleon-Opt", "Alloy-Cache",
    "baseline_20GB_DDR3", "CAMEO",
)
SERVE_BENCHMARKS = ("mcf", "lbm", "stream", "comd", "miniFE", "bwaves")
SERVE_SCALE = {
    "fast_mb": 1.0,
    "accesses_per_core": 1000,
    "warmup_per_core": 1000,
    "num_copies": 4,
}
#: Of every ``SERVE_BLOCK`` requests a client sends, ``SERVE_NEW`` ask
#: for a cell nobody has asked for before (30%).
SERVE_BLOCK = 10
SERVE_NEW = 3
#: Served cells re-simulated in-process after timing.
SERVE_SAMPLED = 8


class RequestStream:
    """One closed-loop client's request sequence, a pure function of
    ``(seed, client)``.

    Each block of ten requests holds exactly three new cells (fresh
    seeds, taken in a seeded order that visits every design ×
    benchmark pair once per 36 new cells) and seven repeats of cells
    this client already had answered, so every seed sends the same mix
    and only the order and the traces differ.
    """

    def __init__(self, seed: int, client: int) -> None:
        self.rng = random.Random(f"bench.serve:{seed}:{client}")
        self.fresh_base = 1 + seed * 1_000_000 + client * 100_000
        self.asked: List[Dict[str, Any]] = []
        self.cells: List[Tuple[str, str]] = []
        self.block: List[bool] = []

    def _new_cell(self) -> Tuple[str, str]:
        if not self.cells:
            self.cells = [(d, b) for d in SERVE_DESIGNS
                          for b in SERVE_BENCHMARKS]
            self.rng.shuffle(self.cells)
        return self.cells.pop()

    def next(self) -> Tuple[Dict[str, Any], bool]:
        """``(request, is_new)``."""
        if not self.block:
            self.block = [True] * SERVE_NEW + [False] * (SERVE_BLOCK - SERVE_NEW)
            self.rng.shuffle(self.block)
        new = self.block.pop() or not self.asked
        if new:
            design, workload = self._new_cell()
            request = {
                "design": design,
                "workload": workload,
                "seed": self.fresh_base + len(self.asked),
                "client": f"bench-{self.fresh_base}",
                **SERVE_SCALE,
            }
            self.asked.append(request)
            return request, True
        return self.rng.choice(self.asked), False


@dataclass
class Reply:
    """One request as the client saw it."""

    key: str
    new: bool
    latency_ms: float
    status: int
    body: bytes


def cell_key(request: Dict[str, Any]) -> str:
    return json.dumps(
        {k: v for k, v in request.items() if k != "client"}, sort_keys=True
    )


def send(port: int, request: Dict[str, Any], new: bool) -> Reply:
    """One closed-loop request; any failure becomes a non-200 reply."""
    from repro.serve import Client

    start = time.perf_counter()
    try:
        status, _, body = Client("127.0.0.1", port, timeout=120.0).request(
            "POST", "/v1/simulate", dict(request, wait=True)
        )
    except (OSError, http.client.HTTPException) as exc:
        status, body = 0, repr(exc).encode()
    return Reply(
        cell_key(request), new, (time.perf_counter() - start) * 1e3,
        status, body,
    )


def closed_loop(
    port: int, streams: List[RequestStream], per_client: int,
    recorder: Optional[SpanRecorder] = None,
) -> List[Reply]:
    """Each stream on its own thread, one request at a time."""
    replies: List[List[Reply]] = [[] for _ in streams]

    def client(index: int) -> None:
        for _ in range(per_client):
            request, new = streams[index].next()
            if recorder is None:
                replies[index].append(send(port, request, new))
                continue
            with recorder.span(
                "serve.request",
                trace_id=f"serve-mixed/{cell_key(request)}",
                new=new,
            ):
                replies[index].append(send(port, request, new))

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [reply for per in replies for reply in per]


class ServeMixed:
    """A live ``repro.serve`` subprocess under two closed-loop clients:
    warm answers share the server's interpreter lock with cold
    simulations, so trading one class for the other shows."""

    name = "serve-mixed"
    clients = 2
    #: Enough passes for ten new requests beyond the cold p95 (216 new
    #: requests); an 18 s run makes about 33 on the reference VM.
    min_passes = 18
    tail_pct = tail_rung(min_passes * 40 * SERVE_NEW // SERVE_BLOCK)

    def __init__(self, seed: int, per_pass: int = 40) -> None:
        self.seed = seed
        self.per_pass = per_pass
        self.ops_per_pass = per_pass // self.clients * self.clients
        self.streams = [RequestStream(seed, i) for i in range(self.clients)]
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.tmp: Optional[str] = None
        self.snapshot: Dict[str, Any] = {}
        self.cold_ms: List[float] = []

    def setup(self) -> None:
        from repro.serve import Client

        OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=OUT, prefix="serve-")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             "--port", "0", "--jobs", "1", "--cache-dir", self.tmp],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        assert self.server.stdout is not None
        deadline = time.monotonic() + 60.0
        for line in self.server.stdout:
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1].strip())
                break
            if time.monotonic() > deadline:
                break
        if not self.port:
            raise RuntimeError("serve subprocess never started listening")
        Client("127.0.0.1", self.port, timeout=30.0).healthz()

    def run_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        # Calibrate only while both clients are idle: a sample taken
        # mid-pass would hold the client interpreter's lock and delay
        # the other client's sub-millisecond warm requests.
        speed = HostSpeed(recorder)
        speed.sample()
        start = time.perf_counter()
        replies = closed_loop(
            self.port, self.streams, self.per_pass // self.clients, recorder
        )
        wall = time.perf_counter() - start
        speed.sample()
        factor = speed.factor()
        return PassResult(
            wall_s=wall * factor,
            cold_ms=[r.latency_ms * factor for r in replies if r.new],
            warm_ms=[r.latency_ms * factor for r in replies if not r.new],
            attempted=len(replies),
            failed=sum(1 for r in replies if r.status != 200),
            measured_wall_s=wall,
            outputs={"replies": replies},
        )

    def verify(self, passes: List[PassResult]) -> List[str]:
        from repro.check.canonical import payload_digest
        from repro.runtime.cells import simulate_cell
        from repro.serve import Client
        from repro.serve.protocol import SimRequest

        self.snapshot = Client("127.0.0.1", self.port).metrics()
        problems = []
        answered: Dict[str, bytes] = {}
        for done in passes:
            for reply in done.outputs.pop("replies"):
                if reply.status != 200:
                    problems.append(f"HTTP {reply.status} for {reply.key}")
                    continue
                first = answered.setdefault(reply.key, reply.body)
                if reply.body != first:
                    problems.append(f"repeat of {reply.key} changed bytes")
                if reply.new:
                    self.cold_ms.append(reply.latency_ms)
        rng = random.Random(f"bench.serve.sample:{self.seed}")
        for key in rng.sample(sorted(answered), min(SERVE_SAMPLED, len(answered))):
            request = SimRequest.from_dict(json.loads(key))
            served = json.loads(answered[key])["result"]
            local = simulate_cell(request.scale(), request.design,
                                  request.workload)
            if payload_digest(served) != digest(local):
                problems.append(f"served {key} != in-process simulation")
        return problems

    def teardown(self) -> None:
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            if self.server.stdout is not None:
                self.server.stdout.close()
            self.server = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


# ----------------------------------------------------------------------
# check-full
# ----------------------------------------------------------------------


#: The committed goldens: 15 designs × 3 ``SMOKE_SCALE`` benchmarks.
GOLDEN_CELLS = 45


class CheckFull:
    """The full conformance check: the only user-facing run through the
    scalar reference kernel, telemetry-on simulation, canonical
    encoding, the per-cell pool and in-process server boots.

    ``sample`` checks that many golden cells instead of all of them; a
    traced run of another workload uses that as its reduced pass of
    this one.
    """

    name = "check-full"
    min_passes = 1
    #: One pass: 50 progress lines (start, 45 cells, 3 invariant packs,
    #: fuzz).
    tail_pct = tail_rung(50)

    def __init__(self, seed: int, sample: int = 0, fuzz: int = 4) -> None:
        self.seed = seed
        self.sample = sample
        self.fuzz = fuzz
        self.cells = sample or GOLDEN_CELLS
        self.ops_per_pass = self.cells + fuzz

    def setup(self) -> None:
        from repro.check import runner  # noqa: F401 — import cost

    def run_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        if recorder is not None:
            return self._phases(recorder)
        from repro.check.runner import run_check

        speed = HostSpeed(recorder)
        marks: List[Tuple[float, float]] = []

        def step(line: str) -> None:
            # Between steps the check runs nothing: calibrate there.
            before = time.perf_counter()
            speed.sample()
            marks.append((before, time.perf_counter()))

        start = time.perf_counter()
        report = run_check(
            sample=self.sample, fuzz=self.fuzz, seed=self.seed,
            goldens_dir=GOLDENS, echo=step,
        )
        end = time.perf_counter()
        speed.sample()
        # Each progress line starts a step; a step lasts until the next
        # line and lies between that line's sample and the next one.
        ends = [before for before, _ in marks[1:]] + [end]
        steps = [
            (stop - began) * 1e3 * speed.between(i, i + 1)
            for i, ((_, began), stop) in enumerate(zip(marks, ends))
        ]
        # Every sample but the last was taken inside run_check.
        measured = end - start - speed.spent(0, len(speed.samples) - 2)
        # Before the first progress line run_check only sets up.
        lead = (marks[0][0] - start) * speed.between(0, 0)
        return self._result(measured, sum(steps) / 1e3 + lead, steps,
                            report.cells, report.fuzz, report.error)

    def _phases(self, recorder: SpanRecorder) -> PassResult:
        """The phases of ``run_check`` through their public functions,
        in ``run_check`` order, one span each."""
        from repro.check.fuzz import run_fuzz
        from repro.check.oracle import run_execution_paths, run_invariants
        from repro.check.runner import MAX_INVARIANT_CELLS, run_check
        from repro.experiments.runner import SMOKE_SCALE

        steps: List[float] = []
        speed = HostSpeed(recorder)
        speed.sample()
        start = time.perf_counter()
        with recorder.span("check.goldens", trace_id="check-full"):
            report = run_check(sample=self.sample, fuzz=0, seed=self.seed,
                               goldens_dir=GOLDENS, deep=False,
                               echo=lambda line: None)
        with recorder.span("check.paths", trace_id="check-full"):
            for cell in report.cells:
                began = time.perf_counter()
                cell.paths = run_execution_paths(
                    SMOKE_SCALE, cell.design, cell.workload
                )
                steps.append(time.perf_counter() - began)
        with recorder.span("check.invariants", trace_id="check-full"):
            for cell in report.cells[:MAX_INVARIANT_CELLS]:
                cell.invariants = run_invariants(
                    SMOKE_SCALE, cell.design, cell.workload
                )
        with recorder.span("check.fuzz", trace_id="check-full"):
            outcomes = run_fuzz(self.seed, self.fuzz)
        end = time.perf_counter()
        speed.sample()
        factor = speed.factor()
        return self._result(end - start, (end - start) * factor,
                            [s * 1e3 * factor for s in steps],
                            report.cells, outcomes, report.error)

    @staticmethod
    def _result(measured, wall, steps, cells, fuzz, error) -> PassResult:
        verdicts = list(cells) + list(fuzz)
        failed = sum(1 for verdict in verdicts if not verdict.passed)
        return PassResult(
            wall_s=wall,
            cold_ms=steps,
            attempted=max(1, len(verdicts)),
            failed=failed + (1 if error else 0),
            measured_wall_s=measured,
            outputs={"error": error, "cells": len(cells)},
        )

    def verify(self, passes: List[PassResult]) -> List[str]:
        problems = []
        for done in passes:
            if done.outputs["error"]:
                problems.append(f"check error: {done.outputs['error']}")
            if done.outputs["cells"] != self.cells:
                problems.append(
                    f"check covered {done.outputs['cells']} cells, "
                    f"not {self.cells}"
                )
            if done.failed:
                problems.append(f"check: {done.failed} verdict(s) failed")
        return problems

    def teardown(self) -> None:
        pass


def make(name: str, seed: int):
    factories = {
        "fig18-serial": Fig18Serial,
        "grid-pool": GridPool,
        "serve-mixed": ServeMixed,
        "check-full": CheckFull,
    }
    return factories[name](seed)


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


def measure(workload: Any, seconds: float, outcome: Outcome) -> None:
    """Whole passes into ``outcome`` until the next one would end after
    ``seconds``, and at least ``workload.min_passes``."""
    elapsed = 0.0
    while True:
        done = workload.run_pass()
        outcome.passes.append(done)
        elapsed += done.measured_wall_s
        typical = statistics.median(p.measured_wall_s for p in outcome.passes)
        if (len(outcome.passes) >= workload.min_passes
                and elapsed + typical > seconds):
            return


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(outcome: Outcome, tail_pct: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (values only), times
    at reference host speed; the parent adds ``setup_s``, which it
    times from outside.  The median is of the warm operations where a
    workload has them, the tail always of the cold ones."""
    cold = [ms for p in outcome.passes for ms in p.cold_ms]
    warm = [ms for p in outcome.passes for ms in p.warm_ms]
    walls = [p.wall_s for p in outcome.passes]

    def latency(samples: List[float]) -> Dict[str, float]:
        """Both percentiles of one class, with its own tail rung."""
        rung = tail_rung(len(samples))
        return {"count": len(samples), "p50_ms": nearest_rank(samples, 50.0),
                "tail_percentile": rung,
                "tail_ms": nearest_rank(samples, rung),
                "tail_beyond": beyond(samples, rung)}

    outcome.extra.update(
        passes=len(walls),
        tail_percentile=tail_pct,
        tail_beyond=beyond(cold, tail_pct),
        cold=latency(cold),
        warm=latency(warm) if warm else None,
        measured_wall_s=[p.measured_wall_s for p in outcome.passes],
    )
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": sum(p.attempted for p in outcome.passes) / sum(walls),
        "op_p50_ms": nearest_rank(warm or cold, 50.0),
        "op_tail_ms": nearest_rank(cold, tail_pct),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_child(workload: Any, seconds: float, trace: bool,
              setup_only: bool) -> Optional[Dict[str, Any]]:
    """Set up, print ``READY``, measure and check: the run's record, or
    ``None`` after a set-up-only run that succeeded."""
    outcome = Outcome()
    metrics: Dict[str, float] = {}
    try:
        workload.setup()
        print("READY", flush=True)
        if setup_only:
            return None
        if trace:
            import layers

            metrics = layers.traced_run(workload, outcome)
        else:
            measure(workload, seconds, outcome)
            outcome.problems += workload.verify(outcome.passes)
            metrics = end_to_end(outcome, workload.tail_pct)
    except Exception as exc:
        # The program under test failed (a cell past its retries, a
        # server that never listened, a check that raised): that is an
        # incorrect run, reported as such, and the pass it was in lost
        # its operations.  Standard output carries only the protocol.
        traceback.print_exc(file=sys.stderr)
        outcome.problems.append(f"{workload.name}: {exc!r}")
        outcome.more_attempted += workload.ops_per_pass
        outcome.more_failed += workload.ops_per_pass
    finally:
        workload.teardown()
    correct = not outcome.problems and outcome.failed == 0
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # An incorrect run's numbers are not comparable: none reported.
        "metrics": metrics if correct else {},
        "problems": outcome.problems[:20],
        "extra": outcome.extra,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    record = run_child(make(args.workload, args.seed), args.seconds,
                       bool(args.trace), args.setup_only)
    if record is not None:
        print("RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
