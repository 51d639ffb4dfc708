"""The conformance subsystem: canonical digests, the golden store,
sampling, the check runner's verdicts, the fuzz generator, and the
CLI exit codes — including the mandated regression test that an
injected digest mismatch makes ``check`` exit non-zero.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.check import (
    GOLDEN_BLESSED,
    GOLDEN_MATCH,
    GOLDEN_MISMATCH,
    REPORT_SCHEMA_VERSION,
    GoldenRecord,
    GoldenStore,
    canonical_json_bytes,
    cell_key,
    conformance_grid,
    events_digest,
    generate_cases,
    payload_digest,
    result_digest,
    run_check,
    sample_cells,
    scale_identity,
)
from repro.check.canonical import (
    INFRASTRUCTURE_EVENT_KINDS,
    _generic_line,
    _line_encoder,
)
from repro.check.fuzz import (
    ACCESSES_RANGE,
    COPIES_CHOICES,
    FAST_MB_CHOICES,
    run_fuzz,
)
from repro.check.oracle import (
    PATH_CACHE_WARM,
    PATH_POOL_ARENA,
    PATH_SCALAR,
    PATH_SERIAL,
    PATH_SERVE,
    PATH_SWEEP,
    run_execution_paths,
    run_execution_paths_batch,
    run_invariants,
)
from repro.check.report import CellReport
from repro.experiments.__main__ import main
from repro.experiments.designs import REGISTRY
from repro.experiments.runner import SMOKE_SCALE
from repro.telemetry.events import EVENT_TYPES, SegmentSwap
from tests.conftest import tiny_scale

COMMITTED_GOLDENS = Path(__file__).parent / "goldens"

TINY = tiny_scale(accesses=60, num_copies=1)


class _FakeResult:
    def __init__(self, payload):
        self.payload = payload

    def to_dict(self):
        return self.payload


class TestCanonicalDigests:
    def test_key_order_never_leaks(self):
        assert canonical_json_bytes({"b": 1, "a": 2}) == canonical_json_bytes(
            {"a": 2, "b": 1}
        )
        assert payload_digest({"b": 1, "a": 2}) == payload_digest(
            {"a": 2, "b": 1}
        )

    @pytest.mark.parametrize("payload", [
        {"name": "Chaméléon ✓", "b": {"z": [1, 2.5], "a": None}},
        [0.1, 1e300, -0.0, None, True, "ß"],
        {"nested": {"deeper": {"x": -0.0, "y": 1e300}}, "0": 0.1},
    ], ids=["non_ascii", "float_edges", "nested"])
    def test_shared_encoder_matches_json_dumps(self, payload):
        assert canonical_json_bytes(payload) == json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode()

    def test_value_changes_change_the_digest(self):
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})
        assert payload_digest({"a": 1.0}) != payload_digest({"a": 1.0000001})

    def test_result_digest_accepts_object_or_mapping(self):
        payload = {"x": 3, "hit_rate": 0.5}
        assert result_digest(_FakeResult(payload)) == result_digest(payload)

    def test_events_digest_is_order_sensitive(self):
        a = {"kind": "epoch", "epoch": 0}
        b = {"kind": "epoch", "epoch": 1}
        assert events_digest([a, b]) != events_digest([b, a])

    def test_infrastructure_events_are_transparent(self):
        semantic = [{"kind": "epoch", "epoch": 0}]
        noisy = [
            {"kind": "arena", "action": "attach"},
            semantic[0],
            {"kind": "job_retry", "attempt": 2},
            {"kind": "serve", "action": "admit"},
        ]
        assert events_digest(noisy) == events_digest(semantic)

    def test_empty_stream_digest_is_stable(self):
        assert events_digest([]) == events_digest(
            [{"kind": "arena", "action": "attach"}]
        )


class TestCompiledEventEncoders:
    """``events_digest`` renders registered event classes through
    compiled line encoders; every line must equal the canonical
    encoding of the event's ``to_dict()``."""

    EDGE_VALUES = (
        True, False, None, 0, -7, 10**30, -0.0, 5e-324, 1e16, 2.5,
        float("nan"), float("inf"), float("-inf"), np.float64(0.1),
        "", 'say "hi"', "back\\slash", "ctrl\x00\x1f\n\t\x7f",
        "Chaméléon ✓ \u2028 \U0001f600",
    )

    @classmethod
    def edge_events(cls, event_cls):
        """Events of ``event_cls`` whose fields rotate through every
        edge value, so each field sees each value."""
        names = event_cls.__match_args__
        values = cls.EDGE_VALUES
        return [
            event_cls(*(values[(i + k) % len(values)]
                        for i in range(len(names))))
            for k in range(len(values))
        ]

    @classmethod
    def stream(cls):
        return [
            event
            for event_cls in EVENT_TYPES.values()
            for event in cls.edge_events(event_cls)
        ]

    @pytest.mark.parametrize("event_cls", EVENT_TYPES.values(),
                             ids=lambda c: c.kind)
    def test_compiled_line_equals_canonical_bytes(self, event_cls):
        encode = _line_encoder(event_cls)
        infrastructure = event_cls.kind in INFRASTRUCTURE_EVENT_KINDS
        assert (encode is _generic_line) == infrastructure
        for event in self.edge_events(event_cls):
            line = encode(event)
            if infrastructure:
                assert line is None
            else:
                assert line.encode("utf-8") == canonical_json_bytes(
                    event.to_dict()
                )

    def test_unencodable_value_fails_as_the_shared_encoder_does(self):
        event = SegmentSwap(0.0, np.int64(1), 2, 3)
        with pytest.raises(TypeError):
            canonical_json_bytes(event.to_dict())
        with pytest.raises(TypeError):
            events_digest([event])

    def test_object_and_dict_streams_digest_the_same(self):
        # Long enough to cross a hashing chunk boundary.
        stream = self.stream() * 20
        expected = hashlib.sha256()
        for event in stream:
            if event.kind not in INFRASTRUCTURE_EVENT_KINDS:
                expected.update(canonical_json_bytes(event.to_dict()) + b"\n")
        assert events_digest(stream) == expected.hexdigest()
        assert events_digest([e.to_dict() for e in stream]) == (
            expected.hexdigest()
        )

    def test_infrastructure_kinds_are_excluded(self):
        stream = self.stream()
        semantic = [
            e for e in stream if e.kind not in INFRASTRUCTURE_EVENT_KINDS
        ]
        assert len(semantic) < len(stream)
        assert events_digest(stream) == events_digest(semantic)


class TestGoldenStore:
    def test_put_get_round_trip(self, runtime_dirs):
        store = GoldenStore(runtime_dirs.goldens)
        record = store.put(TINY, "PoM", "mcf", "a" * 64, "b" * 64, "initial")
        loaded = store.get(TINY, "PoM", "mcf")
        assert loaded == record
        assert loaded.note == "initial"
        assert loaded.recorded_version == repro.__version__
        assert len(store) == 1

    def test_blessing_requires_a_note(self, runtime_dirs):
        store = GoldenStore(runtime_dirs.goldens)
        with pytest.raises(ValueError, match="note"):
            store.put(TINY, "PoM", "mcf", "a" * 64, "b" * 64, "  ")

    def test_missing_cell_is_none_damage_raises(self, runtime_dirs):
        store = GoldenStore(runtime_dirs.goldens)
        assert store.get(TINY, "PoM", "mcf") is None
        store.put(TINY, "PoM", "mcf", "a" * 64, "b" * 64, "x")
        path = store.path_for(TINY, "PoM", "mcf")
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema"):
            store.get(TINY, "PoM", "mcf")

    def test_key_is_version_independent(self, runtime_dirs, monkeypatch):
        """The store's whole point: a version bump must NOT retire a
        golden (the result cache does the opposite on purpose)."""
        store = GoldenStore(runtime_dirs.goldens)
        store.put(TINY, "PoM", "mcf", "a" * 64, "b" * 64, "recorded at 1.5")
        before = cell_key(TINY, "PoM", "mcf")
        monkeypatch.setattr(repro, "__version__", "99.0.0")
        assert cell_key(TINY, "PoM", "mcf") == before
        survived = store.get(TINY, "PoM", "mcf")
        assert survived is not None
        assert survived.recorded_version != "99.0.0"

    def test_key_distinguishes_cell_and_scale_but_not_siblings(self):
        base = cell_key(TINY, "PoM", "mcf")
        assert base != cell_key(TINY, "Chameleon", "mcf")
        assert base != cell_key(TINY, "PoM", "bwaves")
        assert base != cell_key(tiny_scale(accesses=61, num_copies=1),
                                "PoM", "mcf")
        # Sweep siblings never affect a cell's own result.
        sibling = tiny_scale(
            accesses=60, num_copies=1, benchmarks=("mcf", "bwaves")
        )
        assert base == cell_key(sibling, "PoM", "mcf")
        assert "benchmarks" not in scale_identity(TINY)

    def test_record_schema_gate(self):
        with pytest.raises(ValueError, match="unsupported golden schema"):
            GoldenRecord.from_dict({"schema": None})


class TestSampling:
    def test_grid_covers_full_registry(self):
        grid = conformance_grid(SMOKE_SCALE)
        assert len(grid) == len(REGISTRY.labels()) * len(
            SMOKE_SCALE.benchmarks
        )

    def test_sample_is_deterministic_subset_in_grid_order(self):
        grid = conformance_grid(SMOKE_SCALE)
        a = sample_cells(SMOKE_SCALE, 6, seed=0)
        assert a == sample_cells(SMOKE_SCALE, 6, seed=0)
        assert a != sample_cells(SMOKE_SCALE, 6, seed=1)
        assert len(a) == 6
        assert [c for c in grid if c in a] == a

    def test_zero_or_oversized_sample_is_the_whole_grid(self):
        grid = conformance_grid(SMOKE_SCALE)
        assert sample_cells(SMOKE_SCALE, 0, seed=0) == grid
        assert sample_cells(SMOKE_SCALE, 10_000, seed=0) == grid


def quiet(_line):
    pass


class TestRunCheck:
    """Fast-path (``deep=False``) bless/verify cycles at a tiny scale."""

    def test_bless_then_verify_passes(self, runtime_dirs):
        blessed = run_check(
            TINY, bless=True, note="initial tiny goldens",
            goldens_dir=runtime_dirs.goldens, deep=False, echo=quiet,
        )
        assert blessed.passed
        assert all(c.golden_status == GOLDEN_BLESSED for c in blessed.cells)
        assert len(blessed.cells) == len(conformance_grid(TINY))

        verified = run_check(
            TINY, sample=0, goldens_dir=runtime_dirs.goldens,
            deep=False, fuzz=0, echo=quiet,
        )
        assert verified.passed
        assert all(c.golden_status == GOLDEN_MATCH for c in verified.cells)

    def test_every_committed_golden_matches(self):
        """Every cell of the committed store re-simulates to its blessed
        digests — the guard that any bit-exact refactor leans on."""
        report = run_check(
            sample=0, goldens_dir=COMMITTED_GOLDENS, deep=False, echo=quiet,
        )
        assert report.passed, [
            f"{c.design}/{c.workload}: {c.golden_detail}"
            for c in report.cells
            if c.golden_status != GOLDEN_MATCH
        ]
        assert len(report.cells) == len(conformance_grid(SMOKE_SCALE)) == 45
        assert all(c.golden_status == GOLDEN_MATCH for c in report.cells)

    def test_sampled_streams_are_digested_as_they_land(self, monkeypatch):
        """The golden stage digests each cell's stream as the cell
        lands and drops it: same digests as collecting every stream
        first, and nothing left on the executor afterwards."""
        from repro.check import runner
        from repro.runtime import SweepExecutor
        from repro.telemetry import EventBus

        cells = [
            ("Chameleon-Opt", "mcf"),
            ("Chameleon-Shared", "mcf"),
            ("PoM", "mcf"),
        ]
        built = []

        class Recording(SweepExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runner, "SweepExecutor", Recording)
        results, streams = runner._simulate_sampled(TINY, cells, jobs=1)
        (executor,) = built
        assert executor.events == {}

        collected = SweepExecutor(
            jobs=1, cache=None, faults=None, telemetry=EventBus()
        )
        expected = collected.run_cells(TINY, cells)
        assert results == expected
        assert streams == {
            cell: events_digest(collected.events[cell]) for cell in cells
        }
        assert events_digest([]) not in streams.values()

    def test_tampered_golden_is_a_mismatch(self, runtime_dirs):
        run_check(
            TINY, bless=True, note="initial", deep=False,
            goldens_dir=runtime_dirs.goldens, echo=quiet,
        )
        store = GoldenStore(runtime_dirs.goldens)
        victim = store.path_for(TINY, "PoM", "mcf")
        data = json.loads(victim.read_text())
        data["result_digest"] = "0" * 64
        victim.write_text(json.dumps(data))

        report = run_check(
            TINY, sample=0, goldens_dir=runtime_dirs.goldens,
            deep=False, fuzz=0, echo=quiet,
        )
        assert not report.passed
        bad = [c for c in report.cells if c.golden_status == GOLDEN_MISMATCH]
        assert [(c.design, c.workload) for c in bad] == [("PoM", "mcf")]
        assert "re-blessed" in bad[0].golden_detail

    def test_verify_without_goldens_is_an_error(self, runtime_dirs):
        report = run_check(
            TINY, goldens_dir=runtime_dirs.goldens, deep=False, echo=quiet,
        )
        assert not report.passed
        assert "no goldens" in report.error

    def test_bless_without_note_is_an_error(self, runtime_dirs):
        report = run_check(
            TINY, bless=True, goldens_dir=runtime_dirs.goldens,
            deep=False, echo=quiet,
        )
        assert "--note" in report.error
        assert not report.passed

    def test_report_schema_and_write(self, runtime_dirs):
        report = run_check(
            TINY, bless=True, note="n", deep=False,
            goldens_dir=runtime_dirs.goldens, echo=quiet,
        )
        wire = report.to_dict()
        assert wire["schema"] == REPORT_SCHEMA_VERSION
        assert wire["version"] == repro.__version__
        assert wire["summary"]["passed"] is True
        assert wire["scale"] == scale_identity(TINY)
        out = report.write(runtime_dirs.scratch / "CHECK_report.json")
        assert json.loads(out.read_text()) == wire


class SimulationTally:
    """Wraps ``repro.runtime.cells.simulate``: counts every call (pool
    workers too, through a fork-shared counter), tags each call made in
    this process, and perturbs the result of the calls a test picks.

    A call's tag is ``(kernel, telemetry on, where, trace attached,
    warmup, workload)``; ``where`` is ``"main"`` (this thread),
    ``"thread"`` (another thread: a server's executor) or ``"worker"``
    (a pool process).
    """

    def __init__(self, monkeypatch, perturb=lambda call, seen: False):
        import repro.runtime.cells as cells

        self.total = multiprocessing.Value("i", 0)
        self.calls = []
        parent = os.getpid()
        simulate = cells.simulate

        def wrapper(architecture, workload, **kwargs):
            with self.total.get_lock():
                self.total.value += 1
            telemetry = kwargs.get("telemetry")
            if os.getpid() != parent:
                where = "worker"
            elif threading.current_thread() is threading.main_thread():
                where = "main"
            else:
                where = "thread"
            call = (
                kwargs.get("kernel", "auto"),
                telemetry is not None and telemetry.enabled,
                where,
                getattr(workload, "trace", None) is not None,
                kwargs.get("warmup_per_core"),
                workload.name,
            )
            seen = self.calls.count(call)
            if where != "worker":
                self.calls.append(call)
            result = simulate(architecture, workload, **kwargs)
            if perturb(call, seen):
                result = dataclasses.replace(result, swaps=result.swaps + 1)
            return result

        monkeypatch.setattr(cells, "simulate", wrapper)

    def count(self, kernel, telemetry, thread, trace=False, warmup=None):
        return sum(
            1 for call in self.calls
            if call[:4] == (kernel, telemetry, thread, trace)
            and warmup in (None, call[4])
        )


def perturb_warm_hits(monkeypatch, workload=None):
    """Perturb every result a :class:`ResultCache` serves (of
    ``workload`` alone, if given): only a warm replay reads one back."""
    from repro.runtime import ResultCache

    get = ResultCache.get

    def perturbed(self, scale, design, name):
        hit = get(self, scale, design, name)
        if hit is not None and workload in (None, name):
            hit = dataclasses.replace(hit, swaps=hit.swaps + 1)
        return hit

    monkeypatch.setattr(ResultCache, "get", perturbed)


#: A perturbation of the runs behind one execution path → the paths
#: that must then disagree with the rest.  The warm cache replays what
#: the serial run wrote, so it carries the serial run's perturbation.
PATH_MUTATIONS = {
    PATH_SCALAR: (
        lambda call, seen: call[0] == "scalar", {PATH_SCALAR}
    ),
    PATH_SERIAL: (
        lambda call, seen: call[:3] == ("auto", True, "main"),
        {PATH_SERIAL, PATH_CACHE_WARM},
    ),
    PATH_POOL_ARENA: (
        lambda call, seen: call[2] == "worker", {PATH_POOL_ARENA}
    ),
    PATH_SERVE: (lambda call, seen: call[2] == "thread", {PATH_SERVE}),
}


#: A two-cell batch (its first cell is the one the batch tests perturb)
#: and a scale listing both workloads.
BATCH = [("PoM", "mcf"), ("Chameleon", "lbm")]
BATCH_SCALE = tiny_scale(accesses=60, num_copies=1, benchmarks=("mcf", "lbm"))


class TestOracleRunsEachPathOnce:
    """The oracle runs every distinct execution path once per cell and
    every verdict reads that run; perturbing any one path alone makes
    the cell disagree, so no path goes unchecked."""

    def test_execution_paths_simulate_each_path_once(self, monkeypatch):
        tally = SimulationTally(monkeypatch)
        paths = run_execution_paths(TINY, "PoM", "mcf")
        assert [p.path for p in paths] == [
            PATH_SCALAR, PATH_SERIAL, PATH_CACHE_WARM, PATH_POOL_ARENA,
            PATH_SERVE,
        ]
        assert len({p.result_digest for p in paths}) == 1
        assert tally.count("scalar", True, "main") == 1
        assert tally.count("auto", True, "main") == 1      # serial, cold
        assert tally.count("auto", False, "thread", trace=True) == 1
        assert len(tally.calls) == 3                      # + serve
        assert tally.total.value == 4                     # + the pool's
        assert paths[2].detail == "served from disk"      # warm: none

    def test_invariants_capture_the_chunked_run_once(self, monkeypatch):
        tally = SimulationTally(monkeypatch)
        invariants = run_invariants(TINY, "PoM", "mcf")
        assert all(i.passed for i in invariants), invariants
        warmup = TINY.warmup_per_core
        # The shared capture and the seed-determinism repeat.
        assert tally.count("auto", True, "main", warmup=warmup) == 2
        assert tally.count("auto", False, "main", warmup=warmup) == 1
        assert tally.count("scalar", True, "main") == 2   # warmup 0 and 1
        assert tally.count("auto", True, "main") == 4     # + the same
        assert tally.count("auto", False, "thread", trace=True) == 1
        assert tally.total.value == len(tally.calls) == 8

    def test_fuzz_captures_the_chunked_run_once(self, monkeypatch):
        tally = SimulationTally(monkeypatch)
        outcomes = run_fuzz(3, 2)
        assert all(o.passed for o in outcomes)
        assert tally.count("auto", True, "main") == 2 * 2
        assert tally.count("scalar", True, "main") == 2
        assert tally.count("auto", False, "main") == 2
        assert tally.total.value == len(tally.calls) == 2 * 4

    @pytest.mark.parametrize("path", list(PATH_MUTATIONS))
    def test_perturbing_one_path_breaks_agreement(self, monkeypatch, path):
        perturb, diverged = PATH_MUTATIONS[path]
        SimulationTally(monkeypatch, perturb=perturb)
        self._assert_only_diverged(
            run_execution_paths(TINY, "PoM", "mcf"), diverged
        )

    def test_perturbed_warm_cache_breaks_agreement(self, monkeypatch):
        perturb_warm_hits(monkeypatch)
        self._assert_only_diverged(
            run_execution_paths(TINY, "PoM", "mcf"), {PATH_CACHE_WARM}
        )

    @pytest.mark.parametrize("path", [*PATH_MUTATIONS, PATH_CACHE_WARM])
    def test_a_batch_isolates_the_perturbed_cell(self, monkeypatch, path):
        """Each sweep path runs once over the whole batch, yet a
        perturbed run flags only its own cell and path."""
        victim, bystander = BATCH
        if path == PATH_CACHE_WARM:
            perturb_warm_hits(monkeypatch, workload=victim[1])
            diverged = {PATH_CACHE_WARM}
        else:
            perturb, diverged = PATH_MUTATIONS[path]
            SimulationTally(
                monkeypatch,
                perturb=lambda call, seen: call[5] == victim[1]
                and perturb(call, seen),
            )
        paths = run_execution_paths_batch(BATCH_SCALE, BATCH)
        self._assert_only_diverged(paths[victim], diverged)
        assert CellReport(
            *bystander, "", "", GOLDEN_MATCH, paths=paths[bystander]
        ).paths_agree

    def test_perturbed_golden_sweep_breaks_agreement(
        self, monkeypatch, runtime_dirs
    ):
        run_check(
            TINY, bless=True, note="initial", deep=False,
            goldens_dir=runtime_dirs.goldens, echo=quiet,
        )
        # The golden sweep is the only main-thread run on an arena.
        SimulationTally(
            monkeypatch,
            perturb=lambda call, seen: call[2:4] == ("main", True),
        )
        report = run_check(
            TINY, sample=1, fuzz=0, goldens_dir=runtime_dirs.goldens,
            echo=quiet,
        )
        (cell,) = report.cells
        assert cell.paths[0].path == PATH_SWEEP
        assert cell.paths[0].detail == "jobs=1, arena"
        self._assert_only_diverged(cell.paths, {PATH_SWEEP})

    def test_a_warm_miss_flags_only_its_own_cell(self, monkeypatch):
        from repro.runtime import ResultCache

        get = ResultCache.get
        monkeypatch.setattr(
            ResultCache, "get",
            lambda self, scale, design, workload: None
            if workload == BATCH[0][1]
            else get(self, scale, design, workload),
        )
        victim, bystander = BATCH
        paths = run_execution_paths_batch(BATCH_SCALE, BATCH)
        warm = {cell: paths[cell][2] for cell in paths}
        assert warm[victim].path == PATH_CACHE_WARM
        assert warm[victim].detail == "unexpected: 1 cell(s) re-simulated"
        assert warm[bystander].detail == "served from disk"
        self._assert_only_diverged(paths[victim], {PATH_CACHE_WARM})

    def test_a_check_boots_one_pool_and_one_server(
        self, monkeypatch, runtime_dirs
    ):
        """The sweep paths run once per check, not once per cell: one
        pooled sweep and one oracle server, plus one server per
        coalesced-bytes invariant."""
        from repro.check.runner import MAX_INVARIANT_CELLS
        from repro.runtime import SweepExecutor
        from repro.serve import ServerThread

        run_check(
            TINY, bless=True, note="initial", deep=False,
            goldens_dir=runtime_dirs.goldens, echo=quiet,
        )
        counts = {"_run_supervised": 0, "_spawn": 0, "start": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(SweepExecutor, "_run_supervised")
        counting(SweepExecutor, "_spawn")
        counting(ServerThread, "start")
        lines = []
        report = run_check(
            TINY, sample=2, fuzz=0, goldens_dir=runtime_dirs.goldens,
            echo=lines.append,
        )
        assert report.passed
        assert all(len(cell.paths) == 6 for cell in report.cells)
        invariant_cells = min(2, MAX_INVARIANT_CELLS)
        assert counts == {
            "_run_supervised": 1,
            "_spawn": 2,
            "start": 1 + invariant_cells,
        }
        # A line per stage and per cell: the golden sweep, the batched
        # sweep paths, each cell's scalar run, each invariant pack.
        assert len(lines) == 2 + 2 + invariant_cells

    @staticmethod
    def _assert_only_diverged(paths, diverged):
        cell = CellReport("PoM", "mcf", "", "", GOLDEN_MATCH, paths=paths)
        assert not cell.paths_agree
        odd = {p.result_digest for p in paths if p.path in diverged}
        rest = {p.result_digest for p in paths if p.path not in diverged}
        assert len(odd) == len(rest) == 1
        assert odd != rest

    @pytest.mark.parametrize("run, failed", [
        # The shared capture feeds all three verdicts: a cell whose
        # chunked run does not repeat fails determinism and parity.
        ("chunked", {"kernel-parity", "seed-determinism",
                     "telemetry-transparency"}),
        ("repeat", {"seed-determinism"}),
        ("scalar", {"kernel-parity"}),
        ("silent", {"telemetry-transparency"}),
    ])
    def test_perturbed_fuzz_run_fails_its_verdicts(
        self, monkeypatch, run, failed
    ):
        picks = {
            "chunked": lambda call, seen: call[:2] == ("auto", True)
            and seen == 0,
            "repeat": lambda call, seen: call[:2] == ("auto", True)
            and seen == 1,
            "scalar": lambda call, seen: call[0] == "scalar",
            "silent": lambda call, seen: call[:2] == ("auto", False),
        }
        SimulationTally(monkeypatch, perturb=picks[run])
        (outcome,) = run_fuzz(3, 1)
        assert {
            i.name for i in outcome.invariants if not i.passed
        } == failed

    def test_perturbed_capture_fails_the_cell_pack(self, monkeypatch):
        SimulationTally(
            monkeypatch,
            perturb=lambda call, seen: call[:3] == ("auto", True, "main")
            and call[4] == TINY.warmup_per_core and seen == 0,
        )
        failed = {
            i.name for i in run_invariants(TINY, "PoM", "mcf")
            if not i.passed
        }
        # The shared capture feeds seed determinism, transparency and
        # (through its swaps) the epoch totals.
        assert failed == {
            "seed-determinism", "telemetry-transparency", "epoch-consistency"
        }


class TestFuzzGenerator:
    def test_seeded_and_bounded(self):
        cases = generate_cases(7, 12)
        assert cases == generate_cases(7, 12)
        assert cases != generate_cases(8, 12)
        names = set(REGISTRY.labels())
        for case in cases:
            assert case.design in names
            assert case.scale.fast_mb in FAST_MB_CHOICES
            assert case.scale.num_copies in COPIES_CHOICES
            assert (
                ACCESSES_RANGE[0]
                <= case.scale.accesses_per_core
                < ACCESSES_RANGE[1]
            )
            assert 0 <= case.scale.warmup_per_core < (
                case.scale.accesses_per_core
            )
            assert case.scale.benchmarks == (case.workload,)


class TestCheckCli:
    def test_bless_without_note_is_usage_error(self, capsys):
        assert main(["check", "--bless"]) == 2
        assert "--note" in capsys.readouterr().err

    def test_injected_mismatch_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        """The acceptance regression test: tamper one committed golden
        digest and the full CLI (deep oracle included) must exit 1."""
        tampered = tmp_path / "goldens"
        shutil.copytree(COMMITTED_GOLDENS, tampered)
        (victim_design, victim_workload) = sample_cells(
            SMOKE_SCALE, 1, seed=0
        )[0]
        victim = GoldenStore(tampered).path_for(
            SMOKE_SCALE, victim_design, victim_workload
        )
        data = json.loads(victim.read_text())
        data["result_digest"] = "0" * 64
        victim.write_text(json.dumps(data))

        monkeypatch.chdir(tmp_path)
        code = main(
            ["check", "--sample", "1", "--seed", "0", "--fuzz", "0",
             "--goldens", str(tampered)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        report = json.loads((tmp_path / "CHECK_report.json").read_text())
        assert report["summary"]["cells_failed"] == 1

    @pytest.mark.slow
    def test_check_passes_against_committed_goldens(
        self, tmp_path, monkeypatch, capsys
    ):
        """End-to-end PASS against the real committed store, report
        written where --out says."""
        out = tmp_path / "CHECK_report.json"
        code = main(
            ["check", "--sample", "2", "--seed", "0", "--fuzz", "1",
             "--goldens", str(COMMITTED_GOLDENS), "--out", str(out)]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["summary"]["passed"] is True
        assert report["summary"]["paths"] >= 2
