"""The public API surface resolves and is importable as documented,
and the :mod:`repro.api` facade matches its frozen snapshot.

The ``FROZEN_SURFACE`` snapshot below is the compatibility contract of
docs/API.md: changing any name or signature in ``repro.api`` fails
this suite on purpose.  If the change is intentional, it needs a
deprecation cycle (warn one minor release before removing/changing),
an entry in docs/API.md, and only then an update to the snapshot.
"""

import importlib
import inspect
import shutil
import subprocess
import sys

import pytest

import repro
from repro import api


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert major.isdigit() and minor.isdigit() and patch.isdigit()

    @pytest.mark.parametrize(
        "module",
        [
            "repro.config",
            "repro.stats",
            "repro.dram",
            "repro.cachesim",
            "repro.cpu",
            "repro.trace",
            "repro.osmodel",
            "repro.arch",
            "repro.core",
            "repro.workloads",
            "repro.sim",
            "repro.experiments",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.config",
            "repro.dram.device",
            "repro.cachesim.coherence",
            "repro.osmodel.vm",
            "repro.arch.pom",
            "repro.core.chameleon",
            "repro.core.chameleon_opt",
            "repro.workloads.synthetic",
            "repro.sim.engine",
        ],
    )
    def test_key_modules_have_docstrings(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 80

    def test_readme_quickstart_names_exist(self):
        # The README's quickstart imports must stay valid.
        from repro import (
            ChameleonOptArchitecture,
            PoMArchitecture,
            benchmark,
            build_workload,
            scaled_config,
            simulate,
        )

        assert callable(simulate) and callable(build_workload)

    def test_api_reexported_from_package_root(self):
        assert repro.api is api
        assert "api" in repro.__all__


def _describe(name: str) -> str:
    """One-line shape of an exported name: kind plus call signature."""
    obj = getattr(api, name)
    if inspect.isfunction(obj):
        return f"function{inspect.signature(obj)}"
    if inspect.isclass(obj):
        try:
            sig = str(inspect.signature(obj))
        except (ValueError, TypeError):
            sig = "(...)"
        return f"class{sig}"
    return f"constant:{type(obj).__name__}"


#: The frozen v3 surface: every ``repro.api`` export and, for
#: callables, its exact signature (names, order, kinds, defaults,
#: annotations).  Regenerate a candidate with ``_describe`` only as
#: the last step of a deliberate, documented surface change.
FROZEN_SURFACE = {
    "API_VERSION": "constant:int",
    "BenchmarkSpec": "class(name: 'str', suite: 'str', llc_mpki: 'float', footprint_gb: 'float', zipf_alpha: 'float', run_length: 'int', write_fraction: 'float', working_set_fraction: 'float' = 0.15, tail_fraction: 'float' = 0.05, phase_accesses: 'int' = 8000, churn: 'float' = 0.1) -> None",
    "CATEGORIES": "constant:tuple",
    "CacheHierarchy": "class(config: 'SystemConfig', num_cores: 'int | None' = None, counters: 'CounterSet | None' = None) -> 'None'",
    "CoherentHierarchy": "class(config: 'SystemConfig', num_cores: 'int | None' = None, counters: 'CounterSet | None' = None) -> 'None'",
    "DesignSpec": "class(label: 'str', factory: 'DesignFactory', category: 'str', figures: 'Tuple[str, ...]' = ()) -> None",
    "EventBus": "class() -> 'None'",
    "EventLog": "class(limit: 'Optional[int]' = None) -> 'None'",
    "GB": "constant:int",
    "KB": "constant:int",
    "LongRunSimulator": "class(capacity_bytes: 'int') -> 'None'",
    "MB": "constant:int",
    "MemoryArchitecture": "class(config: 'SystemConfig', counters: 'CounterSet | None' = None, telemetry: 'EventBus | NullBus | None' = None)",
    "MultiprogramWorkload": "class(config: 'SystemConfig', spec: 'BenchmarkSpec', num_copies: 'int', segments: 'List[int]', per_core_segments: 'List[List[int]]', seed: 'int' = 0, trace: 'CompiledTrace | None' = None) -> None",
    "ServeClient": "class(host: 'str' = '127.0.0.1', port: 'int' = 8642, *, timeout: 'float' = 300.0) -> 'None'",
    "SimRequest": "class(design: 'str', workload: 'str', fast_mb: 'float' = 4.0, ratio: 'int' = 5, accesses_per_core: 'int' = 1500, warmup_per_core: 'int' = 1500, num_copies: 'int' = 12, seed: 'int' = 0, client: 'str' = 'anon', priority: 'int' = 0) -> None",
    "Scale": "class(fast_mb: 'float' = 4.0, ratio: 'int' = 5, accesses_per_core: 'int' = 1500, warmup_per_core: 'int' = 1500, num_copies: 'int' = 12, benchmarks: 'Tuple[str, ...]' = ('bwaves', 'lbm', 'cactusADM', 'leslie3d', 'mcf', 'GemsFDTD', 'SP', 'stream', 'cloverleaf', 'comd', 'miniAMR', 'hpccg', 'miniFE', 'miniGhost'), seed: 'int' = 0) -> None",
    "SimulationResult": "class(workload: 'str', architecture: 'str', performance: 'WorkloadPerformance', fast_hit_rate: 'float', average_latency_ns: 'float', swaps: 'float', page_faults: 'int', counters: 'CounterSet', cache_mode_fraction: 'Optional[float]' = None) -> None",
    "SweepMetrics": "class(jobs: 'int' = 1, cells: 'List[CellStat]' = <factory>, wall_seconds: 'float' = 0.0, sweeps: 'int' = 0, crashes: 'int' = 0, timeouts: 'int' = 0, errors: 'int' = 0, retries: 'int' = 0, degraded: 'bool' = False, arena_bytes: 'int' = 0, arena_hits: 'int' = 0, kernels: 'Dict[str, int]' = <factory>) -> None",
    "SweepOutcome": "class(results: 'Mapping[Tuple[str, str], SimulationResult]', metrics: 'SweepMetrics', events: 'Mapping[Tuple[str, str], List[TelemetryEvent]]' = <factory>) -> None",
    "SweepRequest": "class(designs: 'Tuple[str, ...]', workloads: 'Tuple[str, ...]', fast_mb: 'float' = 4.0, ratio: 'int' = 5, accesses_per_core: 'int' = 1500, warmup_per_core: 'int' = 1500, num_copies: 'int' = 12, seed: 'int' = 0, client: 'str' = 'anon', priority: 'int' = 0) -> None",
    "SystemConfig": "class(num_cores: 'int' = 12, core: 'CoreConfig' = <factory>, l1: 'CacheLevelConfig' = <factory>, l2: 'CacheLevelConfig' = <factory>, l3: 'CacheLevelConfig' = <factory>, fast_mem: 'DramConfig' = <factory>, slow_mem: 'DramConfig' = <factory>, segment_bytes: 'int' = 2048, page_bytes: 'int' = 4096, page_fault_latency_cycles: 'int' = 100000) -> None",
    "TimelineRecorder": "class() -> 'None'",
    "WorkloadSpec": "class(name: 'str', footprint_bytes: 'int', base_seconds: 'float', page_touch_rate: 'float' = 200000.0, locality: 'float' = 0.6, alloc_fraction: 'float' = 0.05) -> None",
    "__version__": "constant:str",
    "benchmark": "function(name: 'str') -> 'BenchmarkSpec'",
    "build_design": "function(label: 'str', config: 'Optional[SystemConfig]' = None) -> 'MemoryArchitecture'",
    "build_workload": "function(name: 'Union[str, BenchmarkSpec]', *, config: 'Optional[SystemConfig]' = None, num_copies: 'int' = 12, scattered: 'bool' = True, seed: 'int' = 0, footprint_override_fraction: 'Optional[float]' = None, exclude_segments: 'Optional[set]' = None) -> 'MultiprogramWorkload'",
    "characterize": "function(records: 'Iterable[AccessRecord]', page_bytes: 'int' = 4096) -> 'TraceProfile'",
    "designs": "function(*, figure: 'Optional[str]' = None, category: 'Optional[str]' = None) -> 'Tuple[DesignSpec, ...]'",
    "improvement_percent": "function(baseline: 'CapacityRunResult', other: 'CapacityRunResult') -> 'float'",
    "read_trace": "function(path: 'str | Path') -> 'Iterator[AccessRecord]'",
    "scaled_config": "function(*, fast_mb: 'float' = 4.0, ratio: 'int' = 5, segment_bytes: 'int' = 2048) -> 'SystemConfig'",
    "simulate": "function(*, design: 'Union[str, MemoryArchitecture]', workload: 'Union[str, MultiprogramWorkload]', config: 'Optional[SystemConfig]' = None, accesses_per_core: 'int' = 2000, warmup_per_core: 'Optional[int]' = None, num_copies: 'int' = 12, seed: 'int' = 0, kernel: 'str' = 'auto', apply_isa: 'bool' = True, telemetry: 'Optional[EventBus]' = None) -> 'SimulationResult'",
    "sweep": "function(*, designs: 'Optional[Sequence[str]]' = None, scale: 'Optional[Scale]' = None, jobs: 'int' = 1, cache_dir: 'Optional[Union[str, Path]]' = None, audit: 'bool' = False, arena: 'bool' = True, arena_budget: 'Optional[int]' = None, timeout: 'Optional[float]' = None, retries: 'Optional[int]' = None) -> 'SweepOutcome'",
    "workloads": "function() -> 'Tuple[BenchmarkSpec, ...]'",
    "write_trace": "function(path: 'str | Path', records: 'Iterable[AccessRecord]') -> 'int'",
}


class TestFrozenApiSurface:
    def test_all_is_sorted_and_complete(self):
        assert list(api.__all__) == sorted(api.__all__)
        assert set(api.__all__) == set(FROZEN_SURFACE)

    def test_api_version(self):
        assert api.API_VERSION == 3

    @pytest.mark.parametrize("name", sorted(FROZEN_SURFACE))
    def test_name_matches_snapshot(self, name):
        assert _describe(name) == FROZEN_SURFACE[name], (
            f"repro.api.{name} changed shape; public-surface changes "
            "need a deprecation cycle (docs/API.md) before the "
            "snapshot may be updated"
        )

    def test_no_extra_public_names(self):
        # Nothing importable-looking leaks beyond __all__ (helpers are
        # underscore-prefixed; re-exported module objects are fine to
        # reach but are not part of the contract).
        public = {
            name
            for name, obj in vars(api).items()
            if not name.startswith("_") and not inspect.ismodule(obj)
        }
        contract = set(api.__all__)
        # Internal names used by the facade implementation itself,
        # plus typing/stdlib imports at module scope:
        allowed_extras = {
            "DEFAULT_SEGMENT_BYTES",
            "REGISTRY",
            "ResultCache",
            "SweepExecutor",
            "TABLE2_BENCHMARKS",
            "TelemetryEvent",
            "Dict", "List", "Mapping", "Optional", "Path", "Sequence",
            "Tuple", "Union", "annotations", "dataclass", "field",
        }
        assert public - contract <= allowed_extras


class TestApiTypeChecks:
    def test_py_typed_marker_ships(self):
        from pathlib import Path

        assert (Path(repro.__file__).parent / "py.typed").exists()

    @pytest.mark.skipif(
        shutil.which("mypy") is None, reason="mypy not installed"
    )
    def test_facade_passes_mypy_strict(self):
        from pathlib import Path

        api_path = Path(api.__file__)
        proc = subprocess.run(
            [
                "mypy",
                "--strict",
                "--follow-imports=silent",
                str(api_path),
            ],
            capture_output=True,
            text=True,
            cwd=str(api_path.parent.parent.parent),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
