"""The telemetry subsystem: bus semantics, event wire format, the
recorders, both trace exporters, and the live SRRT invariant auditor
(clean full-registry sweep + deliberate corruption)."""

import dataclasses
import json
import pickle
import typing

import pytest

from repro.check import events_digest
from repro.experiments import SMOKE_SCALE
from repro.experiments.designs import REGISTRY
from repro.telemetry import (
    EVENT_TYPES,
    NULL_BUS,
    ArenaEvent,
    EpochSample,
    EventBus,
    EventLog,
    InvariantAuditor,
    InvariantViolation,
    IsaAllocEvent,
    JobRetryEvent,
    ModeTransition,
    PageFaultEvent,
    SegmentSwap,
    ServeEvent,
    TimelineRecorder,
    WritebackEvent,
    event_from_dict,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)


class TestBus:
    def test_null_bus_is_disabled_and_silent(self):
        assert not NULL_BUS.enabled
        assert not NULL_BUS
        NULL_BUS.emit(ModeTransition(0.0, group=0, mode="pom"))  # no-op

    def test_null_bus_rejects_subscribers(self):
        with pytest.raises(RuntimeError):
            NULL_BUS.subscribe(lambda event: None)

    def test_emit_fans_out_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e)))
        bus.subscribe(lambda e: seen.append(("b", e)))
        event = SegmentSwap(1.0, group=0, moved_local=1, displaced_local=0)
        bus.emit(event)
        assert seen == [("a", event), ("b", event)]
        assert bus.emitted == 1

    def test_subscribe_returns_the_handler(self):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        bus.emit(PageFaultEvent(0.0, page=7, major=True))
        assert log.total == 1

    def test_handler_exceptions_reach_the_emit_site(self):
        bus = EventBus()

        def boom(event):
            raise RuntimeError("handler failed")

        bus.subscribe(boom)
        with pytest.raises(RuntimeError, match="handler failed"):
            bus.emit(ModeTransition(0.0, group=0, mode="cache"))


class TestEventWireFormat:
    EVENTS = [
        SegmentSwap(1.5, group=2, moved_local=3, displaced_local=0,
                    reason="proactive"),
        ModeTransition(2.0, group=1, mode="cache"),
        IsaAllocEvent(3.0, segment=42, alloc=True, group=7, local=2),
        IsaAllocEvent(3.5, segment=43, alloc=False),
        WritebackEvent(4.0, group=0, local=5),
        PageFaultEvent(5.0, page=123, major=False),
        EpochSample(6.0, epoch=1, accesses=100.0, fast_hits=60.0,
                    swaps=3.0, faults=1),
        JobRetryEvent(0.0, design="PoM", workload="mcf", attempt=2,
                      reason="crash"),
        ArenaEvent(0.0, action="attach", segment="repro-arena-1",
                   bytes=4096),
        ServeEvent(0.0, action="complete", job="9f2c", client="c1",
                   queue_depth=3, seconds=0.25),
    ]

    #: ``events_digest(EVENTS)``: any change to the wire bytes of a
    #: simulation event (field order aside) moves it, as it would move
    #: every committed golden's events digest.
    EVENTS_DIGEST = (
        "74e36d3843adb0e53b94fd36fc2c6e4a261ca3a8cd77b437b7ff7252751a7698"
    )

    #: The annotations a field may carry: JSON scalars only, because
    #: ``to_dict`` hands out field values without copying them.
    JSON_SCALARS = (float, int, str, bool, typing.Optional[int])

    def test_every_kind_has_a_sample(self):
        assert {e.kind for e in self.EVENTS} == set(EVENT_TYPES)

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.kind)
    def test_round_trip_is_lossless(self, event):
        data = event.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert event_from_dict(data) == event

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.kind)
    def test_to_dict_is_asdict_then_kind(self, event):
        data = event.to_dict()
        expected = {**dataclasses.asdict(event), "kind": event.kind}
        assert data == expected
        assert list(data) == list(expected)

    @pytest.mark.parametrize("cls", EVENT_TYPES.values(),
                             ids=lambda c: c.kind)
    def test_fields_are_json_scalars(self, cls):
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            assert hints[field.name] in self.JSON_SCALARS, field.name

    def test_events_digest_is_pinned(self):
        assert events_digest(self.EVENTS) == self.EVENTS_DIGEST

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.kind)
    def test_events_stay_frozen(self, event):
        name = event.__match_args__[-1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(event, name, getattr(event, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            del event.time_ns

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.kind)
    def test_constructor_keeps_the_dataclass_contract(self, event):
        cls = type(event)
        values = [getattr(event, f.name) for f in dataclasses.fields(cls)]
        rebuilt = cls(*values)
        assert rebuilt == event and hash(rebuilt) == hash(event)
        assert repr(rebuilt) == repr(event)
        assert pickle.loads(pickle.dumps(event)) == event
        assert dataclasses.replace(event) == event
        defaulted = [f for f in dataclasses.fields(cls)
                     if f.default is not dataclasses.MISSING]
        required = [f.name for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING]
        partial = cls(**{name: getattr(event, name) for name in required})
        for f in defaulted:
            assert getattr(partial, f.name) == f.default
        with pytest.raises(TypeError, match="missing"):
            cls()

    def test_missing_field_rejected(self):
        data = SegmentSwap(1.0, group=2, moved_local=3,
                           displaced_local=0).to_dict()
        del data["group"]
        with pytest.raises(ValueError, match=r"segment_swap .*\['group'\]"):
            event_from_dict(data)

    def test_absent_defaulted_field_takes_its_default(self):
        data = {"kind": "isa_alloc", "time_ns": 0.0, "segment": 4,
                "alloc": True}
        assert event_from_dict(data) == IsaAllocEvent(0.0, segment=4,
                                                      alloc=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "flux_capacitor"})

    def test_extra_fields_ignored(self):
        # JSONL lines from a merged sweep carry a "track" tag.
        data = ModeTransition(0.0, group=0, mode="pom").to_dict()
        data["track"] = "Chameleon/mcf"
        assert event_from_dict(data) == ModeTransition(
            0.0, group=0, mode="pom"
        )


class TestEventLog:
    def test_limit_bounds_retention_not_total(self):
        log = EventLog(limit=2)
        for page in range(5):
            log(PageFaultEvent(0.0, page=page, major=True))
        assert log.total == 5
        assert [e.page for e in log.events] == [3, 4]

    def test_drain_returns_and_resets(self):
        log = EventLog()
        log(ModeTransition(0.0, group=0, mode="pom"))
        assert len(log.drain()) == 1
        assert log.total == 0
        assert log.events == []


class TestTimelineRecorder:
    def test_epochs_fold_structural_counts_and_hit_rate(self):
        rec = TimelineRecorder()
        rec(SegmentSwap(1.0, group=0, moved_local=1, displaced_local=0))
        rec(SegmentSwap(2.0, group=0, moved_local=2, displaced_local=1))
        rec(ModeTransition(3.0, group=0, mode="cache"))
        rec(IsaAllocEvent(4.0, segment=0, alloc=True))
        rec(PageFaultEvent(5.0, page=1, major=True))
        rec(PageFaultEvent(5.5, page=2, major=False))  # minor: not counted
        rec(EpochSample(10.0, epoch=1, accesses=100.0, fast_hits=60.0,
                        swaps=2.0, faults=1.0))
        rec(WritebackEvent(11.0, group=0, local=1))
        rec(IsaAllocEvent(12.0, segment=0, alloc=False))
        rec(EpochSample(20.0, epoch=2, accesses=300.0, fast_hits=220.0,
                        swaps=2.0, faults=1.0))

        timeline = rec.timeline
        assert rec.epochs == 2
        assert timeline.times == [10.0, 20.0]
        assert timeline.series("swaps") == [2.0, 0.0]
        assert timeline.series("to_cache") == [1.0, 0.0]
        assert timeline.series("isa_allocs") == [1.0, 0.0]
        assert timeline.series("isa_frees") == [0.0, 1.0]
        assert timeline.series("writebacks") == [0.0, 1.0]
        assert timeline.series("page_faults") == [1.0, 0.0]
        # Cumulative samples are differenced per epoch: 60/100 then
        # (220-60)/(300-100).
        assert timeline.series("fast_hit_rate") == [0.6, 0.8]


EXPORT_EVENTS = [
    ModeTransition(1000.0, group=0, mode="cache"),
    SegmentSwap(2000.0, group=0, moved_local=1, displaced_local=0),
    EpochSample(3000.0, epoch=1, accesses=10.0, fast_hits=5.0,
                swaps=1.0, faults=0.0),
]


class TestExporters:
    def test_jsonl_single_track_has_no_track_tag(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert write_jsonl(EXPORT_EVENTS, path) == 3
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [d["kind"] for d in lines] == [
            "mode_transition", "segment_swap", "epoch_sample",
        ]
        assert all("track" not in d for d in lines)
        assert [event_from_dict(d) for d in lines] == EXPORT_EVENTS

    def test_jsonl_multi_track_tags_every_line(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tracks = {"A/mcf": EXPORT_EVENTS[:1], "B/mcf": EXPORT_EVENTS[1:]}
        assert write_jsonl(tracks, path) == 3
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [d["track"] for d in lines] == ["A/mcf", "B/mcf", "B/mcf"]

    def test_chrome_trace_shape(self, tmp_path):
        path = tmp_path / "trace.json"
        assert write_chrome_trace({"A": EXPORT_EVENTS}, path) == 3
        payload = json.loads(path.read_text())
        records = payload["traceEvents"]
        process_names = [
            r for r in records
            if r["ph"] == "M" and r["name"] == "process_name"
        ]
        assert [r["args"]["name"] for r in process_names] == ["A"]
        instants = [r for r in records if r["ph"] == "i"]
        # Trace Event ts is microseconds; events carry nanoseconds.
        assert [r["ts"] for r in instants] == [1.0, 2.0]
        counters = [r for r in records if r["ph"] == "C"]
        assert counters[0]["args"]["accesses"] == 10.0

    def test_write_trace_dispatches_on_suffix(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        write_trace(EXPORT_EVENTS, jsonl)
        write_trace(EXPORT_EVENTS, chrome)
        assert len(jsonl.read_text().splitlines()) == 3
        assert "traceEvents" in json.loads(chrome.read_text())


class TestAuditor:
    def _smoke_arch(self, label="Chameleon"):
        config = SMOKE_SCALE.config()
        return REGISTRY.get(label).factory(config)

    def test_clean_full_registry_smoke_audit(self):
        # Acceptance bar: every registered design passes a live audit
        # at smoke scale (designs without SRRT machinery audit to zero
        # checks but must not raise).
        import dataclasses

        from repro.runtime import simulate_cell

        scale = dataclasses.replace(SMOKE_SCALE, benchmarks=("mcf",))
        for label in REGISTRY.labels():
            simulate_cell(scale, label, "mcf", audit=True)

    def test_corrupted_srrt_caught_with_event_window(self):
        arch = self._smoke_arch()
        bus = EventBus()
        auditor = InvariantAuditor(arch, window=4).attach(bus)
        arch.telemetry = bus
        arch.isa_alloc(0)  # clean: boots group 0 into PoM mode
        assert auditor.checked > 0

        state = arch.group_state(0)
        state.seg_at[0] = state.seg_at[1]  # duplicate resident
        with pytest.raises(InvariantViolation) as excinfo:
            arch.isa_free(0)
        message = str(excinfo.value)
        assert "not a permutation" in message
        assert "offending event" in message
        assert "last " in message and "event(s):" in message
        assert auditor.violations == 1

    def test_mode_abv_incoherence_caught(self):
        arch = self._smoke_arch()
        bus = EventBus()
        InvariantAuditor(arch).attach(bus)
        arch.telemetry = bus
        arch.isa_alloc(0)
        # Force the Figure 8 gate violation: stacked segment allocated
        # while the mode bit claims cache mode.  The corruption is only
        # witnessed through a group-0 event, so allocate group 0's
        # first *off-chip* segment (local 1).
        from repro.arch.remap import Mode

        offchip = next(
            s
            for s in range(arch.geometry.total_segments)
            if arch.geometry.group_and_local(s) == (0, 1)
        )
        arch.group_state(0).mode = Mode.CACHE
        with pytest.raises(InvariantViolation, match="stacked segment"):
            arch.isa_alloc(offchip)

    def test_audit_all_sweeps_touched_groups(self):
        arch = self._smoke_arch()
        arch.isa_alloc(0)
        auditor = InvariantAuditor(arch)
        assert auditor.audit_all() == 1
        arch.group_state(0).dirty = True  # dirty with nothing cached
        with pytest.raises(InvariantViolation, match="dirty bit"):
            auditor.audit_all()

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            InvariantAuditor(self._smoke_arch(), window=0)

    def test_violation_survives_pickling(self):
        import pickle

        arch = self._smoke_arch()
        auditor = InvariantAuditor(arch)
        arch.isa_alloc(0)
        arch.group_state(0).seg_at[0] = arch.group_state(0).seg_at[1]
        with pytest.raises(InvariantViolation) as excinfo:
            auditor.audit_all()
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(clone, InvariantViolation)
        assert str(clone) == str(excinfo.value)
