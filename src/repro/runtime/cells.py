"""The unit of sweep parallelism: one ``(design, workload)`` cell.

A cell is fully described by ``(Scale, design label, workload name)``
and is deterministic: the workload is synthesised from
``scale.seed`` and the simulator has no other randomness, so running a
cell in a worker process is bit-identical to running it inline.  Design
factories are closures and do not pickle, so workers receive only the
*label* and re-resolve it against the design registry on their side of
the fork.  Workload traces do not cross the pipe either: the parent
publishes them in a :class:`~repro.runtime.arena.TraceArena` before it
forks the pool, so a worker finds them in the memory it inherited and
receives only the arena's small manifest.

Telemetry rides along the same boundary: a worker cannot share the
parent's :class:`~repro.telemetry.EventBus`, so ``timed_cell`` captures
the cell's events on a private bus and returns the
:class:`~repro.telemetry.TelemetryEvent` objects themselves.  A worker
is forked from the same code as the parent, so the pipe pickles them
as they are; an inline cell hands them over untouched.  Capture is
observational — the :class:`SimulationResult` is bit-identical with it
on or off.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.runtime.arena import attach_arena
from repro.runtime.faults import apply_fault
from repro.sim import SimulationResult, simulate
from repro.telemetry.auditor import InvariantAuditor
from repro.telemetry.bus import EventBus
from repro.telemetry.events import ArenaEvent, TelemetryEvent
from repro.telemetry.recorder import EventLog
from repro.workloads import benchmark, build_workload
from repro.workloads.compiled import CompiledTrace


def simulate_cell(
    scale,
    design: str,
    workload: str,
    telemetry: EventBus | None = None,
    audit: bool = False,
    trace: CompiledTrace | None = None,
    kernel: str = "auto",
) -> SimulationResult:
    """Simulate one cell from scratch (config, workload, architecture
    all built fresh — nothing is shared between cells).

    ``telemetry`` receives the cell's event stream; ``audit`` attaches
    a live :class:`~repro.telemetry.InvariantAuditor` to the cell's
    architecture (on ``telemetry``, or on a private bus when none is
    given), raising :class:`~repro.telemetry.InvariantViolation` the
    moment an SRRT invariant breaks.  ``trace`` replays a precompiled
    trace (e.g. one a :class:`~repro.runtime.arena.TraceArena`
    published) instead of regenerating — byte-identical either way.
    ``kernel`` forces a replay kernel (the conformance oracle in
    :mod:`repro.check` pins each path explicitly); the default follows
    :func:`repro.sim.select_kernel`.
    """
    from repro.experiments.designs import REGISTRY

    spec = REGISTRY.get(design)
    config = scale.config()
    built = build_workload(
        config,
        benchmark(workload),
        num_copies=scale.num_copies,
        seed=scale.seed,
    )
    if trace is not None:
        built.attach_trace(trace)
    architecture = spec.factory(config)
    bus = telemetry
    if audit:
        if bus is None or not bus.enabled:
            bus = EventBus()
        InvariantAuditor(architecture).attach(bus)
    return simulate(
        architecture,
        built,
        accesses_per_core=scale.accesses_per_core,
        warmup_per_core=scale.warmup_per_core,
        telemetry=bus,
        kernel=kernel,
    )


def timed_cell(
    args: Tuple,
) -> Tuple[str, str, float, SimulationResult, List[TelemetryEvent]]:
    """Worker-process entry point: ``(scale, design, workload, capture,
    audit, fault, hang_seconds, arena)`` in, ``(design, workload,
    seconds, result, events)`` out.

    ``events`` is the captured list of
    :class:`~repro.telemetry.TelemetryEvent` objects, in emission order
    — empty unless ``capture`` is set.

    ``fault`` is an injected fault kind from a
    :class:`~repro.runtime.faults.FaultPlan`, executed *inside the
    worker* before the simulation so crashes kill the right process and
    hangs stall the right attempt.  Fault injection is observational
    with respect to the final sweep: a faulted attempt never produces a
    result, and the retried attempt carries no fault.

    ``arena`` is a :class:`~repro.runtime.arena.TraceArena` manifest;
    when present the cell replays the compiled trace the parent
    published (a forked worker inherits it) instead of regenerating.
    A failed attach (arena disposed, or a worker that did not inherit
    it) silently falls back to generation — the records are
    byte-identical either way.
    """
    scale, design, workload, capture, audit, fault, hang_seconds, arena = args
    if fault is not None:
        apply_fault(fault, serial=False, hang_seconds=hang_seconds)
    trace: Optional[CompiledTrace] = None
    if arena is not None:
        try:
            trace = attach_arena(arena)[workload]
        except (OSError, KeyError):
            trace = None
    start = time.perf_counter()
    if capture or audit:
        bus = EventBus()
        log = bus.subscribe(EventLog())
        marked = capture and trace is not None
        if marked:
            bus.emit(_arena_event("attach", arena, trace))
        result = simulate_cell(
            scale, design, workload, telemetry=bus, audit=audit,
            trace=trace,
        )
        if marked:
            bus.emit(_arena_event("detach", arena, trace))
        events = log.events if capture else []
    else:
        result = simulate_cell(scale, design, workload, trace=trace)
        events = []
    return design, workload, time.perf_counter() - start, result, events


def _arena_event(
    action: str, manifest: Dict, trace: CompiledTrace
) -> ArenaEvent:
    return ArenaEvent(
        0.0, action=action, segment=str(manifest["handle"]),
        bytes=trace.nbytes,
    )


__all__ = ["simulate_cell", "timed_cell"]
