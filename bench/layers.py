"""The traced run: spans around each layer's public functions, and the
per-layer metrics derived from them.

Spans are recorded from outside the program: :class:`Instrumentation`
swaps module attributes for timing wrappers while a traced pass runs
and restores them afterwards, so no file under ``src/`` changes and an
untraced run executes the original functions.  Spans are per call
(per cell, per sweep, per cache access), never per simulated access.
Worker processes forked by the sweep runtime inherit the wrappers and
spool their spans to ``bench/out``; the parent adopts them after each
sweep.

Each per-layer metric belongs to one workload, the one whose end-to-end
metrics it should move (``bench/README.md`` has the map), and is always
measured on that workload's traffic.  A traced run reports every
per-layer metric ``BENCHMARK.json`` lists, whichever workload it runs:
the metrics of the traced workload come from its own traced passes,
and those of each other workload from one traced *reduced* pass of that
workload (:func:`reduced`: the same code paths with fewer cells or
requests), which is checked like any other pass.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import json
import os
import pstats
import re
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Set, Tuple

from measure import (
    Span,
    SpanRecorder,
    children_of,
    covered,
    nearest_rank,
    self_times,
    write_chrome_trace,
)
from workloads import (
    OUT,
    WORKLOADS,
    CheckFull,
    Fig18Serial,
    GridPool,
    Outcome,
    ServeMixed,
)

#: Packages cProfile self time is attributed to; the rest is ``other``.
PACKAGES = ("sim", "arch", "core", "dram", "osmodel", "stats", "trace",
            "workloads", "cpu")

#: The two profiled cells (one per fast kernel) at ``DEFAULT_SCALE``.
PROFILED = (
    ("batched", "Chameleon-Opt", "mcf"),
    ("batched-paged", "Alloy-Cache", "stream"),
)

_PACKAGE_RE = re.compile(r"[/\\]repro[/\\]([A-Za-z_]+)[/\\]")


def reduced(name: str, seed: int) -> Any:
    """Workload ``name`` cut down to a pass of a few seconds through the
    same layers: both fast kernels, the pool, the cache and the arena,
    the server, every check phase."""
    return {
        "fig18-serial": lambda: Fig18Serial(seed, benchmarks=("mcf",)),
        "grid-pool": lambda: GridPool(
            seed,
            designs=("PoM", "Chameleon-Opt", "Alloy-Cache",
                     "baseline_20GB_DDR3"),
            benchmarks=("mcf", "stream"),
        ),
        "serve-mixed": lambda: ServeMixed(seed, per_pass=20),
        "check-full": lambda: CheckFull(seed, sample=2, fuzz=1),
    }[name]()


class Instrumentation:
    """Timing wrappers around each layer's public entry points."""

    def __init__(self, recorder: SpanRecorder, spool: Path) -> None:
        self.recorder = recorder
        self.spool = spool
        self.parent_pid = os.getpid()
        #: The workload whose pass is now traced.
        self.section = ""
        #: One record per executor sweep: section, jobs, wall, cells and
        #: the seconds of each simulated cell.
        self.sweeps: List[Dict[str, Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- patching ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn: Callable, **fixed: Any) -> Callable:
        recorder = self.recorder

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name, **fixed):
                return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Instrumentation":
        import repro.check.canonical as canonical
        import repro.runtime.arena as arena
        import repro.runtime.cells as cells
        import repro.runtime.executor as executor
        from repro.experiments.designs import REGISTRY
        from repro.runtime import ResultCache, SweepExecutor
        from repro.sim import SimulationResult

        recorder = self.recorder
        self._patch(cells, "simulate", self._simulate(cells.simulate))
        self._patch(cells, "build_workload",
                    self._timed("workloads.build", cells.build_workload))
        self._patch(cells, "attach_arena",
                    self._timed("runtime.arena.attach", cells.attach_arena))
        self._patch(arena, "compile_trace",
                    self._timed("workloads.synth", arena.compile_trace))
        self._patch(canonical, "payload_digest",
                    self._timed("encode.digest", canonical.payload_digest))
        self._patch(SimulationResult, "to_dict",
                    self._timed("encode.to_dict", SimulationResult.to_dict))
        self._patch(ResultCache, "put",
                    self._timed("runtime.cache.put", ResultCache.put))
        self._patch(ResultCache, "get", self._cache_get(ResultCache.get))
        publish = arena.TraceArena.__dict__["publish"].__func__

        def timed_publish(cls: Any, *args: Any, **kwargs: Any) -> Any:
            index = recorder.open("runtime.arena.publish")
            try:
                published = publish(cls, *args, **kwargs)
            finally:
                recorder.close(index)
            if published is not None:
                recorder.spans[index].args["bytes"] = published.nbytes
            return published

        self._patch(arena.TraceArena, "publish", classmethod(timed_publish))
        get_spec = REGISTRY.get
        build = self._timed

        def timed_get(label: str) -> Any:
            spec = get_spec(label)
            return dataclasses.replace(
                spec, factory=build("arch.build", spec.factory, design=label)
            )

        self._patch(REGISTRY, "get", timed_get)
        self._patch(executor, "timed_cell", self._cell(executor.timed_cell))
        self._patch(SweepExecutor, "run", self._sweep(SweepExecutor.run))
        self._patch(SweepExecutor, "run_cells",
                    self._sweep(SweepExecutor.run_cells))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- wrappers with arguments worth recording -----------------------

    def _simulate(self, simulate: Callable) -> Callable:
        from repro.sim import select_kernel

        recorder = self.recorder

        def wrapper(architecture, workload, accesses_per_core,
                    apply_isa=True, warmup_per_core=None, telemetry=None,
                    kernel="auto"):
            if kernel == "auto":
                pager = (architecture.os_visible_bytes
                         < workload.config.total_capacity_bytes)
                kernel_used = select_kernel(architecture, workload, pager).kernel
            else:
                kernel_used = kernel
            warmup = (accesses_per_core // 2 if warmup_per_core is None
                      else warmup_per_core)
            with recorder.span(
                "sim.simulate",
                kernel=kernel_used,
                accesses=(accesses_per_core + warmup) * workload.num_copies,
                telemetry=bool(telemetry is not None and telemetry.enabled),
            ):
                return simulate(architecture, workload, accesses_per_core,
                                apply_isa, warmup_per_core, telemetry, kernel)

        return wrapper

    def _cache_get(self, get: Callable) -> Callable:
        recorder = self.recorder

        def wrapper(cache, scale, design, workload):
            index = recorder.open("runtime.cache.get")
            try:
                found = get(cache, scale, design, workload)
            finally:
                recorder.close(index, hit=False)
            recorder.spans[index].args["hit"] = found is not None
            return found

        return wrapper

    def _cell(self, timed_cell: Callable) -> Callable:
        recorder = self.recorder
        spool = self.spool
        parent_pid = self.parent_pid
        inst = self

        def wrapper(args):
            design, workload = args[1], args[2]
            fork_point = len(recorder.spans)
            try:
                with recorder.span(
                    "runtime.cell",
                    trace_id=f"{inst.section}:{design}/{workload}",
                ):
                    return timed_cell(args)
            finally:
                if os.getpid() != parent_pid:
                    # A forked worker: its memory dies with it, so the
                    # spans it recorded travel through a spool file.
                    payload = {
                        "fork_point": fork_point,
                        "spans": [s.to_dict()
                                  for s in recorder.spans[fork_point:]],
                    }
                    (spool / f"{os.getpid()}.json").write_text(
                        json.dumps(payload)
                    )

        return wrapper

    def _sweep(self, run: Callable) -> Callable:
        recorder = self.recorder
        sweeps = self.sweeps

        def wrapper(executor, scale, cells):
            before = len(executor.metrics.cells)
            first_span = len(recorder.spans)
            start = time.perf_counter()
            try:
                with recorder.span("runtime.sweep", jobs=executor.jobs):
                    return run(executor, scale, cells)
            finally:
                # Harness work inside the sweep (calibration samples
                # taken from its per-cell callback) is not the runtime's.
                harness = sum(s.duration for s in recorder.spans[first_span:]
                              if s.name.startswith("bench."))
                wall = time.perf_counter() - start - harness
                stats = executor.metrics.cells[before:]
                sweeps.append({
                    "section": self.section,
                    "jobs": executor.jobs,
                    "wall": wall,
                    "cells": len(stats),
                    "seconds": [c.seconds for c in stats
                                if c.source == "simulated"],
                })
                self.adopt_spool()

        return wrapper

    def adopt_spool(self) -> None:
        for path in sorted(self.spool.glob("*.json")):
            payload = json.loads(path.read_text())
            self.recorder.adopt(
                [Span.from_dict(data) for data in payload["spans"]],
                payload["fork_point"],
            )
            path.unlink()

    @contextlib.contextmanager
    def section_of(self, name: str) -> Iterator[int]:
        """Trace what runs inside under one ``bench.pass`` root span
        (trace id ``name``), which it yields."""
        recorder = self.recorder
        self.section = name
        root = recorder.open("bench.pass", trace_id=name)
        recorder.default_parent = root
        try:
            with self:
                yield root
        finally:
            recorder.close(root)
            recorder.default_parent = None


# ----------------------------------------------------------------------
# Measurements taken directly rather than through spans
# ----------------------------------------------------------------------


def package_of(filename: str) -> str:
    match = _PACKAGE_RE.search(filename)
    if match and match.group(1) in PACKAGES:
        return match.group(1)
    return "other"


def profile_kernels(seed: int) -> Dict[str, float]:
    """cProfile self-time shares by package, one ``simulate`` call per
    fast kernel at ``DEFAULT_SCALE`` (set-up outside the profile)."""
    from repro.experiments.designs import REGISTRY
    from repro.experiments.runner import DEFAULT_SCALE
    from repro.sim import simulate
    from repro.workloads import benchmark, build_workload

    scale = dataclasses.replace(DEFAULT_SCALE, seed=seed)
    config = scale.config()
    shares: Dict[str, float] = {}
    for kernel, design, name in PROFILED:
        architecture = REGISTRY.get(design).factory(config)
        workload = build_workload(config, benchmark(name),
                                  num_copies=scale.num_copies, seed=seed)
        profiler = cProfile.Profile()
        profiler.enable()
        simulate(architecture, workload,
                 accesses_per_core=scale.accesses_per_core,
                 warmup_per_core=scale.warmup_per_core, kernel=kernel)
        profiler.disable()
        totals = dict.fromkeys(PACKAGES + ("other",), 0.0)
        for (filename, _, _), row in pstats.Stats(profiler).stats.items():
            totals[package_of(filename)] += row[2]  # tottime: self time
        whole = sum(totals.values())
        for package, seconds in totals.items():
            shares[f"prof.{kernel}.{package}_share"] = seconds / whole
    return shares


def telemetry_on_ratio(seed: int) -> float:
    """Median time of a smoke-size cell with telemetry on over off."""
    from repro.experiments.runner import SMOKE_SCALE
    from repro.runtime.cells import simulate_cell
    from repro.telemetry import EventBus

    scale = dataclasses.replace(SMOKE_SCALE, seed=seed)
    on, off = [], []
    for _ in range(3):
        start = time.perf_counter()
        simulate_cell(scale, "Chameleon-Opt", "mcf")
        off.append(time.perf_counter() - start)
        start = time.perf_counter()
        simulate_cell(scale, "Chameleon-Opt", "mcf", telemetry=EventBus())
        on.append(time.perf_counter() - start)
    return statistics.median(on) / statistics.median(off)


# ----------------------------------------------------------------------
# Metrics, one group per workload
# ----------------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _select(spans: Sequence[Span], name: str, **match: Any) -> List[Span]:
    return [s for s in spans if s.name == name
            and all(s.args.get(k) == v for k, v in match.items())]


def _median_ms(spans: Sequence[Span], name: str, **match: Any) -> float:
    return _median([s.duration for s in _select(spans, name, **match)]) * 1e3


def _accesses_per_s(spans: Sequence[Span], kernel: str) -> float:
    """Σ accesses / Σ ``simulate`` time of one kernel, with telemetry on
    or off as the workload runs it (the check runs the scalar reference
    mostly with telemetry on; the figure sweeps never do)."""
    runs = _select(spans, "sim.simulate", kernel=kernel)
    seconds = sum(s.duration for s in runs)
    return sum(s.args["accesses"] for s in runs) / seconds if seconds else 0.0


def fig18_metrics(spans: Sequence[Span],
                  sweeps: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    serial = [s for s in sweeps if s["jobs"] == 1 and s["seconds"]]
    wall = sum(s["wall"] for s in serial)
    busy = sum(sum(s["seconds"]) for s in serial)
    return {
        "sim.batched.accesses_per_s": _accesses_per_s(spans, "batched"),
        "sim.batched-paged.accesses_per_s": _accesses_per_s(
            spans, "batched-paged"),
        "runtime.serial_overhead_ratio": (wall - busy) / wall if wall else 0.0,
    }


def grid_metrics(spans: Sequence[Span],
                 sweeps: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    pool = [s for s in sweeps if s["jobs"] > 1 and s["seconds"]]
    busy = sum(sum(s["seconds"]) for s in pool)
    capacity = sum(s["jobs"] * s["wall"] for s in pool)
    cells = sum(s["cells"] for s in pool)
    published = [s for s in _select(spans, "runtime.arena.publish")
                 if "bytes" in s.args]
    return {
        "workloads.synth_ms": _median_ms(spans, "workloads.synth"),
        "arch.build_ms": _median_ms(spans, "arch.build"),
        "runtime.arena.publish_ms": _median(
            [s.duration for s in published]) * 1e3,
        "runtime.arena.attach_ms": _median_ms(spans, "runtime.arena.attach"),
        "runtime.arena.bytes": float(_median(
            [s.args["bytes"] for s in published])),
        "runtime.cache.put_ms": _median_ms(spans, "runtime.cache.put"),
        "runtime.cache.get_miss_us": _median_ms(
            spans, "runtime.cache.get", hit=False) * 1e3,
        "runtime.cache.get_hit_us": _median_ms(
            spans, "runtime.cache.get", hit=True) * 1e3,
        "runtime.worker_cell_ms": _median(
            [sec * 1e3 for s in pool for sec in s["seconds"]]),
        "runtime.worker_utilisation": busy / capacity if capacity else 0.0,
        "runtime.dispatch_overhead_ms": (
            (capacity - busy) / cells * 1e3 if cells else 0.0
        ),
    }


def check_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    metrics = {
        "sim.scalar.accesses_per_s": _accesses_per_s(spans, "scalar"),
        "encode.to_dict_ms": _median_ms(spans, "encode.to_dict"),
        "encode.digest_ms": _median_ms(spans, "encode.digest"),
    }
    for phase in ("goldens", "paths", "invariants", "fuzz"):
        metrics[f"check.{phase}_s"] = sum(
            s.duration for s in _select(spans, f"check.{phase}")
        )
    return metrics


def serve_metrics(snapshot: Dict[str, Any],
                  cold_client_ms: Sequence[float]) -> Dict[str, float]:
    requests = snapshot["requests"]
    received = max(1, requests["received"])
    dispatch = snapshot["dispatch"]
    latency = snapshot["latency"]
    return {
        "serve.server_simulated_p50_ms": latency["simulated_p50_ms"],
        "serve.server_simulated_p95_ms": latency["simulated_p95_ms"],
        "serve.client_overhead_ms": (
            nearest_rank(cold_client_ms, 50.0) - latency["simulated_p50_ms"]
        ),
        "serve.job_hit_ratio": requests["job_hits"] / received,
        "serve.cells_per_batch": (
            dispatch["worker_cells"] / max(1, dispatch["batches"])
        ),
        "serve.rejected": float(requests["rejected"]),
    }


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def subtree(spans: Sequence[Span], root: int) -> Set[int]:
    children = children_of(spans)
    found, todo = set(), [root]
    while todo:
        index = todo.pop()
        found.add(index)
        todo.extend(children.get(index, []))
    return found


def attributed_share(spans: Sequence[Span], root: int) -> float:
    """Share of the root's time covered by layer spans, leaving out the
    harness's own work (``bench.*`` spans such as digesting and host
    calibration, wherever they nest)."""
    root_span = spans[root]
    members = subtree(spans, root) - {root}
    harness = [(spans[i].start, spans[i].end) for i in members
               if spans[i].name.startswith("bench.")]
    layers = [(spans[c].start, spans[c].end)
              for c in children_of(spans).get(root, [])
              if not spans[c].name.startswith("bench.")]
    low, high = root_span.start, root_span.end
    excluded = covered(harness, low, high)
    return (covered(layers + harness, low, high) - excluded) / (
        root_span.duration - excluded
    )


def self_seconds(spans: Sequence[Span], indices: Set[int]) -> Dict[str, float]:
    """Self time by span name over ``indices``."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for index in indices:
        name = spans[index].name
        totals[name] = totals.get(name, 0.0) + own[index]
    return {name: round(t, 6) for name, t in sorted(totals.items())}


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

#: Each segment of a traced run repeats whole passes for at least this
#: long, so the overhead ratio compares more than one short pass.
TRACE_SEGMENT_S = 3.0


def _segment(workload: Any, recorder: Any = None) -> List[Any]:
    passes = [workload.run_pass(recorder)]
    while sum(p.measured_wall_s for p in passes) < TRACE_SEGMENT_S:
        passes.append(workload.run_pass(recorder))
    return passes


def _mean_wall(passes: Sequence[Any]) -> float:
    return statistics.fmean(p.wall_s for p in passes)


def traced_run(workload: Any, outcome: Outcome) -> Dict[str, float]:
    """Untraced passes, traced passes, untraced passes again (tracing
    overhead is the traced mean pass over the untraced one), then one
    traced reduced pass of every other workload; every pass is checked.
    Passes and problems go into ``outcome``; returns the metrics."""
    recorder = SpanRecorder()
    OUT.mkdir(parents=True, exist_ok=True)
    spool = Path(tempfile.mkdtemp(dir=OUT, prefix="spans-"))
    inst = Instrumentation(recorder, spool)
    roots: Dict[str, int] = {}
    sources = {workload.name: workload}
    try:
        before = _segment(workload)
        with inst.section_of(workload.name) as roots[workload.name]:
            traced = _segment(workload, recorder)
        after = _segment(workload)
        outcome.passes += before + traced + after
        outcome.problems += workload.verify(outcome.passes)
        for name in WORKLOADS:
            if name in sources:
                continue
            other = sources[name] = reduced(name, workload.seed)
            try:
                other.setup()
                with inst.section_of(name) as roots[name]:
                    done = other.run_pass(recorder)
                outcome.problems += [f"reduced {name}: {problem}"
                                     for problem in other.verify([done])]
                outcome.more_attempted += done.attempted
                outcome.more_failed += done.failed
            finally:
                other.teardown()
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    spans = recorder.spans

    def section(name: str) -> Tuple[List[Span], List[Dict[str, Any]]]:
        return ([spans[i] for i in sorted(subtree(spans, roots[name]))],
                [s for s in inst.sweeps if s["section"] == name])

    serve = sources["serve-mixed"]
    own = subtree(spans, roots[workload.name])
    metrics = {
        **fig18_metrics(*section("fig18-serial")),
        **grid_metrics(*section("grid-pool")),
        **check_metrics(section("check-full")[0]),
        **serve_metrics(serve.snapshot, serve.cold_ms),
        **profile_kernels(workload.seed),
        "sim.telemetry_on_ratio": telemetry_on_ratio(workload.seed),
        "trace.overhead_ratio": _mean_wall(traced) / _mean_wall(before + after),
        "trace.attributed_share": attributed_share(spans, roots[workload.name]),
    }
    outcome.extra["self_s"] = self_seconds(spans, own)
    outcome.extra["spans"] = len(spans)
    write_chrome_trace(spans, OUT / f"trace-{workload.name}.json")
    return metrics
