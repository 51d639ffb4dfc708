"""One-pass ISA-Alloc boot: ``isa_alloc_many`` equals one ISA-Alloc
per segment.

``MultiprogramWorkload.apply_allocations`` boots a cell's whole
footprint with one ``isa_alloc_many`` call.  The reference below keeps
the per-segment ISA-Alloc handlers each design had before the loop
form; every registered design must leave the same group tables,
counters, design-private state and event stream (with an
``InvariantAuditor`` attached) either way.
"""

import random

import pytest

from repro.arch.polymorphic import PolymorphicMemory
from repro.arch.remap import Mode
from repro.core.chameleon import ChameleonArchitecture
from repro.core.chameleon_opt import ChameleonOptArchitecture
from repro.experiments.designs import REGISTRY
from repro.experiments.runner import DEFAULT_SCALE, SMOKE_SCALE
from repro.osmodel.autonuma import FAST_NODE, SLOW_NODE
from repro.sim.os_designs import AutoNumaMemory, FirstTouchMemory
from repro.telemetry import EventBus, InvariantAuditor
from repro.telemetry.events import ModeTransition, SegmentSwap
from repro.telemetry.recorder import EventLog
from repro.workloads import benchmark, build_workload

# ----------------------------------------------------------------------
# Per-segment reference handlers
# ----------------------------------------------------------------------


def _enter_pom(arch, group, state):
    if state.mode is not Mode.POM:
        state.mode = Mode.POM
        state.cached = None
        state.dirty = False
        state.miss_streak = 0
        arch.counters.add("chameleon.to_pom")
        bus = arch.telemetry
        if bus.enabled:
            bus.emit(ModeTransition(time_ns=0.0, group=group, mode="pom"))


def _chameleon_alloc(arch, segment_id):
    group, local = arch.geometry.group_and_local(segment_id)
    state = arch.group_state(group)
    arch.counters.add("isa.alloc_seen")
    if local != 0:
        state.abv[local] = True
        arch._emit_isa(segment_id, group, local, alloc=True)
        return
    if state.cached is None:
        arch._clear_segment(group, slot=0)
    else:
        if state.dirty:
            arch._evict_writeback(group, state)
        state.cached = None
        state.dirty = False
        arch._clear_segment(group, slot=0)
    state.abv[0] = True
    _enter_pom(arch, group, state)
    arch._emit_isa(segment_id, group, local, alloc=True)


def _free_offchip_local(state, exclude):
    for candidate in range(state.size):
        if candidate == exclude or state.abv[candidate]:
            continue
        if state.slot_of[candidate] != 0:
            return candidate
    return None


def _chameleon_opt_alloc(arch, segment_id):
    group, local = arch.geometry.group_and_local(segment_id)
    state = arch.group_state(group)
    arch.counters.add("isa.alloc_seen")
    if state.slot_of[local] == 0:
        free_local = _free_offchip_local(state, exclude=local)
        if free_local is not None:
            state.swap_slots(0, state.slot_of[free_local])
            arch.counters.add("chameleon_opt.proactive_remaps")
            arch._clear_segment(group, slot=state.slot_of[local])
            bus = arch.telemetry
            if bus.enabled:
                bus.emit(
                    SegmentSwap(0.0, group, free_local, local, "proactive")
                )
    state.abv[local] = True
    if all(state.abv):
        if state.cached is not None and state.dirty:
            arch._evict_writeback(group, state)
        arch._clear_segment(group, slot=0)
        _enter_pom(arch, group, state)
    arch._emit_isa(segment_id, group, local, alloc=True)


def _polymorphic_alloc(arch, segment_id):
    group, local = arch.geometry.group_and_local(segment_id)
    state = arch.group_state(group)
    state.abv[local] = True
    if local == 0:
        if state.cached is not None and state.dirty:
            arch._writeback(group, state, 0.0)
        state.cached = None
        state.dirty = False
        state.mode = Mode.POM
        arch.counters.add("polymorphic.to_static")


def _first_touch_alloc(arch, segment_id):
    if segment_id in arch._placement:
        return
    in_fast = arch._fast_used < arch._fast_budget
    arch._placement[segment_id] = in_fast
    if in_fast:
        arch._slot[segment_id] = (
            arch._free_fast_slots.pop()
            if arch._free_fast_slots
            else arch._fast_used
        )
        arch._fast_used += 1
        arch.counters.add("numa.placed_fast")
    else:
        arch._slot[segment_id] = (
            arch._free_slow_slots.pop()
            if arch._free_slow_slots
            else arch._slow_used % arch.geometry.num_slow_segments
        )
        arch._slow_used += 1
        arch.counters.add("numa.placed_slow")


def _autonuma_alloc(arch, segment_id):
    if segment_id in arch._placement:
        return
    _first_touch_alloc(arch, segment_id)
    arch.balancer.place(
        segment_id,
        FAST_NODE if arch._placement[segment_id] else SLOW_NODE,
    )


#: Most-derived class first: a design uses the first entry it is an
#: instance of (Chameleon-Shared inherits Chameleon-Opt's handler).
REFERENCE = (
    (ChameleonOptArchitecture, _chameleon_opt_alloc),
    (ChameleonArchitecture, _chameleon_alloc),
    (PolymorphicMemory, _polymorphic_alloc),
    (AutoNumaMemory, _autonuma_alloc),
    (FirstTouchMemory, _first_touch_alloc),
)


def reference_alloc(arch, segments):
    for cls, handler in REFERENCE:
        if isinstance(arch, cls):
            for segment in segments:
                handler(arch, segment)
            return
    # Every other design is OS-agnostic: ISA-Alloc is a no-op.


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def _workload(scale, name):
    return build_workload(
        scale.config(),
        benchmark(name),
        num_copies=scale.num_copies,
        seed=scale.seed,
    )


def _design(scale, label):
    """A fresh architecture with a captured, audited event bus."""
    arch = REGISTRY.get(label).factory(scale.config())
    bus = EventBus()
    log = bus.subscribe(EventLog())
    auditor = InvariantAuditor(arch).attach(bus)
    arch.telemetry = bus
    return arch, log, auditor


def _snapshot(arch, log, auditor):
    """Everything an ISA-Alloc may change, in comparable form."""
    snap = {
        "counters": arch.counters.to_dict(),
        "events": log.events,
        "violations": auditor.violations,
    }
    groups = getattr(arch, "_groups", None)
    if groups is not None:
        snap["groups"] = list(groups.items())  # contents and key order
    for name in ("_order", "_donor_heap", "_queued", "_next_virgin_group"):
        if hasattr(arch, name):
            snap[name] = getattr(arch, name)
    if isinstance(arch, FirstTouchMemory):
        snap["placement"] = list(arch._placement.items())
        snap["slot"] = list(arch._slot.items())
        snap["used"] = (arch._fast_used, arch._slow_used)
        snap["free_slots"] = (arch._free_fast_slots, arch._free_slow_slots)
    if isinstance(arch, AutoNumaMemory):
        balancer = arch.balancer
        snap["balancer"] = (
            list(balancer._placement.items()),
            balancer._fast_used,
            balancer._epoch_access,
            balancer.counters.to_dict(),
        )
    return snap


def _boot_pair(scale, label, workload):
    built = _workload(scale, workload)
    batched = _design(scale, label)
    built.apply_allocations(batched[0])
    reference = _design(scale, label)
    reference_alloc(reference[0], built.segments)
    return _snapshot(*batched), _snapshot(*reference)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["mcf", "comd", "miniFE"])
@pytest.mark.parametrize("label", REGISTRY.labels())
def test_one_pass_boot_matches_per_segment(label, workload):
    batched, reference = _boot_pair(SMOKE_SCALE, label, workload)
    assert batched == reference
    assert batched["violations"] == 0


def test_default_scale_boot_matches_per_segment():
    batched, reference = _boot_pair(DEFAULT_SCALE, "Chameleon-Opt", "mcf")
    assert batched == reference
    assert len(batched["events"]) > 1000  # the stream was really compared


@pytest.mark.parametrize(
    "label",
    [
        "Chameleon",
        "Chameleon-Opt",
        "Chameleon-Shared",
        "Polymorphic",
        "numaAware",
        "autoNUMA_80percent",
    ],
)
def test_chunked_boot_matches_one_call(label):
    built = _workload(SMOKE_SCALE, "mcf")
    segments = list(built.segments)
    whole = _design(SMOKE_SCALE, label)
    whole[0].isa_alloc_many(segments)
    chunked = _design(SMOKE_SCALE, label)
    rng = random.Random(label)
    start = 0
    while start < len(segments):
        stop = start + rng.randint(0, 40)  # empty chunks included
        chunked[0].isa_alloc_many(iter(segments[start:stop]))
        start = stop
    assert _snapshot(*chunked) == _snapshot(*whole)


@pytest.mark.parametrize("label", ["numaAware", "autoNUMA_80percent"])
def test_repeated_segments_are_placed_once(label):
    built = _workload(SMOKE_SCALE, "mcf")
    segments = list(built.segments[:50])
    doubled = segments + segments[::-1]
    batched = _design(SMOKE_SCALE, label)
    batched[0].isa_alloc_many(doubled)
    reference = _design(SMOKE_SCALE, label)
    reference_alloc(reference[0], doubled)
    assert _snapshot(*batched) == _snapshot(*reference)


def test_isa_alloc_is_the_one_segment_case():
    built = _workload(SMOKE_SCALE, "comd")
    single = _design(SMOKE_SCALE, "Chameleon-Opt")
    for segment in built.segments:
        single[0].isa_alloc(segment)
    reference = _design(SMOKE_SCALE, "Chameleon-Opt")
    reference_alloc(reference[0], built.segments)
    assert _snapshot(*single) == _snapshot(*reference)
