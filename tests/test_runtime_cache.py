"""The persistent result cache: hit/miss accounting, cross-process
persistence, version invalidation, corruption tolerance, eviction,
maintenance, concurrent-writer safety."""

import json
import multiprocessing
from pathlib import Path

import pytest

import repro
import repro.runtime.cache as cache_module
from repro.runtime import (
    ResultCache,
    corrupt_cache_entry,
    default_cache_dir,
    simulate_cell,
)
from repro.runtime.cache import MODEL_PACKAGES, model_digest
from tests.conftest import tiny_scale

TINY_SCALE = tiny_scale(accesses=100)

#: The modules and packages of ``src/repro`` whose source does not go
#: into a cell's result: the facade and version, the trace-driven cache
#: simulator, conformance tooling, figure runners, the sweep runtime,
#: the server and telemetry (results are telemetry-transparent).
NON_MODEL_PACKAGES = (
    "__init__", "_version", "api", "cachesim", "check", "experiments",
    "runtime", "serve", "telemetry",
)


def pin_model(monkeypatch, digest):
    """Key every cache as if the model source hashed to ``digest``."""
    monkeypatch.setattr(cache_module, "model_digest", lambda: digest)


@pytest.fixture(scope="module")
def result():
    return simulate_cell(TINY_SCALE, "PoM", "mcf")


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        assert cache.get(TINY_SCALE, "PoM", "mcf") == result
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_survives_across_instances(self, tmp_path, result):
        ResultCache(tmp_path).put(TINY_SCALE, "PoM", "mcf", result)
        fresh = ResultCache(tmp_path)  # models a new process
        assert fresh.get(TINY_SCALE, "PoM", "mcf") == result

    def test_key_distinguishes_cells(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        assert cache.get(TINY_SCALE, "Chameleon", "mcf") is None
        assert cache.get(TINY_SCALE, "PoM", "bwaves") is None

    def test_key_distinguishes_scales(self, tmp_path, result):
        import dataclasses

        cache = ResultCache(tmp_path)
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        other = dataclasses.replace(TINY_SCALE, accesses_per_core=101)
        assert cache.get(other, "PoM", "mcf") is None


class TestInvalidation:
    def test_version_bump_invalidates(self, tmp_path, result):
        ResultCache(tmp_path, version="1.0.0").put(
            TINY_SCALE, "PoM", "mcf", result
        )
        bumped = ResultCache(tmp_path, version="1.0.1")
        assert bumped.get(TINY_SCALE, "PoM", "mcf") is None
        # The old version still addresses its own entry.
        assert (
            ResultCache(tmp_path, version="1.0.0").get(
                TINY_SCALE, "PoM", "mcf"
            )
            == result
        )

    def test_model_change_invalidates(self, tmp_path, result, monkeypatch):
        pin_model(monkeypatch, "a" * 64)
        ResultCache(tmp_path).put(TINY_SCALE, "PoM", "mcf", result)
        pin_model(monkeypatch, "b" * 64)
        other = ResultCache(tmp_path)
        assert other.get(TINY_SCALE, "PoM", "mcf") is None
        other.put(TINY_SCALE, "PoM", "mcf", result)
        assert other.info()["entries"] == 2
        # Each model still addresses its own entry.
        pin_model(monkeypatch, "a" * 64)
        assert ResultCache(tmp_path).get(TINY_SCALE, "PoM", "mcf") == result

    def test_model_digest_is_memoised_and_keyed(self, tmp_path):
        assert model_digest() is model_digest()
        description = ResultCache(tmp_path).describe(TINY_SCALE, "PoM", "mcf")
        assert description["model"] == model_digest()

    def test_every_package_is_classified(self):
        """A new module or package of ``src/repro`` must be declared
        model (its source keys the cache) or not."""
        root = Path(repro.__file__).parent
        found = {
            path.stem for path in root.iterdir()
            if path.suffix == ".py" or (path / "__init__.py").is_file()
        }
        assert not set(MODEL_PACKAGES) & set(NON_MODEL_PACKAGES)
        assert found == set(MODEL_PACKAGES) | set(NON_MODEL_PACKAGES)

    def test_default_version_is_package_version(self, tmp_path):
        assert ResultCache(tmp_path).version == repro.__version__

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(TINY_SCALE, "PoM", "mcf", result)
        path.write_text("{not json")
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        assert not path.exists()

    def test_wrong_result_schema_is_a_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(TINY_SCALE, "PoM", "mcf", result)
        payload = json.loads(path.read_text())
        payload["result"]["schema"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        assert not path.exists()
        assert cache.stats.corrupt == 1


class TestCorruptionTolerance:
    """Every flavour of damaged entry is a silent miss — evicted and
    counted, never an exception out of ``get``."""

    def _corrupt_get(self, tmp_path, result, damage):
        cache = ResultCache(tmp_path)
        path = cache.put(TINY_SCALE, "PoM", "mcf", result)
        damage(path)
        got = cache.get(TINY_SCALE, "PoM", "mcf")
        return cache, path, got

    def test_truncated_entry(self, tmp_path, result):
        cache, path, got = self._corrupt_get(
            tmp_path,
            result,
            lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
        )
        assert got is None
        assert not path.exists()
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_empty_entry(self, tmp_path, result):
        cache, path, got = self._corrupt_get(
            tmp_path, result, lambda p: p.write_bytes(b"")
        )
        assert got is None and not path.exists()
        assert cache.stats.corrupt == 1

    def test_binary_garbage_entry(self, tmp_path, result):
        cache, path, got = self._corrupt_get(
            tmp_path, result, lambda p: p.write_bytes(b"\x80\x81\xfe\xff" * 64)
        )
        assert got is None and not path.exists()
        assert cache.stats.corrupt == 1

    def test_valid_json_wrong_shape(self, tmp_path, result):
        cache, path, got = self._corrupt_get(
            tmp_path, result, lambda p: p.write_text('[1, 2, "not a cell"]')
        )
        assert got is None and not path.exists()
        assert cache.stats.corrupt == 1

    def test_unremovable_entry_is_still_a_miss(self, tmp_path, result):
        # Swap the entry file for a directory: read fails with OSError
        # and so does unlink — get() must shrug both off.
        def damage(p):
            p.unlink()
            p.mkdir()

        cache, path, got = self._corrupt_get(tmp_path, result, damage)
        assert got is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        # Still a miss on the next lookup too, not an error.
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None

    def test_sweep_recovers_after_one_corruption(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        assert corrupt_cache_entry(cache, TINY_SCALE, "PoM", "mcf")
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        # Re-store and the cell is servable again.
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        assert cache.get(TINY_SCALE, "PoM", "mcf") == result
        assert cache.stats.corrupt == 1

    def test_corrupt_helper_is_noop_on_cold_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert not corrupt_cache_entry(cache, TINY_SCALE, "PoM", "mcf")

    def test_entry_path_matches_put(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        expected = cache.entry_path(TINY_SCALE, "PoM", "mcf")
        assert not expected.exists()
        assert cache.put(TINY_SCALE, "PoM", "mcf", result) == expected
        assert expected.exists()


class TestKeying:
    """Cache addresses are a contract with every existing cache
    directory: a key change orphans all of them."""

    #: A stand-in for :func:`model_digest`, which moves with every edit
    #: of the model source.
    PINNED_MODEL = "0" * 64

    #: ``key(TINY_SCALE, "PoM", "mcf")`` at ``version="1.0.0"`` and
    #: :data:`PINNED_MODEL`.
    PINNED_KEY = (
        "b0669b8c22b2dae4a3f4f3f48fd63765afcc49be4bb87916d5f09dc07ce32d7e"
    )

    #: Keys written before the model digest joined the key (its
    #: description is :data:`PINNED_DESCRIPTION` without ``model``).
    PRE_MODEL_KEY = (
        "ad2aa7a6ecd51cda6a7a2c64cd8720fbc82d55fc2a0f4c63280e3a1cc8ff3a08"
    )

    #: The entry description stored next to the result.
    PINNED_DESCRIPTION = {
        "scale": {
            "fast_mb": 1.0,
            "ratio": 5,
            "accesses_per_core": 100,
            "warmup_per_core": 100,
            "num_copies": 2,
            "seed": 0,
        },
        "design": "PoM",
        "workload": "mcf",
        "version": "1.0.0",
        "result_schema": 1,
        "model": PINNED_MODEL,
    }

    @pytest.fixture(autouse=True)
    def _pinned_model(self, monkeypatch):
        pin_model(monkeypatch, self.PINNED_MODEL)

    def test_key_is_pinned(self, tmp_path):
        cache = ResultCache(tmp_path, version="1.0.0")
        assert cache.key(TINY_SCALE, "PoM", "mcf") == self.PINNED_KEY

    def test_describe_is_asdict_minus_benchmarks(self, tmp_path):
        import dataclasses

        cache = ResultCache(tmp_path, version="1.0.0")
        expected = dataclasses.asdict(TINY_SCALE)
        del expected["benchmarks"]
        description = cache.describe(TINY_SCALE, "PoM", "mcf")
        assert description["scale"] == expected
        assert description == self.PINNED_DESCRIPTION

    def test_put_stores_the_description_it_keyed(self, tmp_path, result):
        cache = ResultCache(tmp_path, version="1.0.0")
        path = cache.put(TINY_SCALE, "PoM", "mcf", result)
        assert path.name == f"{self.PINNED_KEY}.json"
        assert path.parent.name == self.PINNED_KEY[:2]
        assert json.loads(path.read_text())["key"] == self.PINNED_DESCRIPTION

    def test_an_entry_keyed_under_another_model_is_a_miss(
        self, tmp_path, result
    ):
        from repro.runtime import SweepExecutor

        # The entry exactly as releases before the model digest laid
        # it out: text JSON of {"key", "result"} at
        # <root>/<key[:2]>/<key>.json.
        old = dict(self.PINNED_DESCRIPTION)
        del old["model"]
        assert ResultCache._digest(old) == self.PRE_MODEL_KEY
        entry = (
            tmp_path / self.PRE_MODEL_KEY[:2] / f"{self.PRE_MODEL_KEY}.json"
        )
        entry.parent.mkdir()
        entry.write_text(json.dumps({"key": old, "result": result.to_dict()}))
        cache = ResultCache(tmp_path, version="1.0.0")
        executor = SweepExecutor(jobs=1, cache=cache, faults=None)
        results = executor.run(TINY_SCALE, ["PoM"])
        assert executor.metrics.simulated == 1
        assert cache.stats.hits == 0 and cache.stats.corrupt == 0
        assert results[("PoM", "mcf")] == result
        assert cache.info()["entries"] == 2  # the orphan stays until clear

    @pytest.mark.parametrize(
        "damage",
        [
            # Invalid UTF-8 inside an otherwise well-formed entry.
            lambda p: p.write_bytes(b'{"key": {}, "result": "\xff\xfe"}'),
            # A lone continuation byte, then a truncated sequence.
            lambda p: p.write_bytes(b"\x80" + p.read_bytes()[:-1] + b"\xe2"),
            # A directory where the entry file should be.
            lambda p: (p.unlink(), p.mkdir()),
        ],
        ids=["invalid_utf8_value", "invalid_utf8_frame", "directory"],
    )
    def test_undecodable_entries_are_counted_misses(
        self, tmp_path, result, damage
    ):
        cache = ResultCache(tmp_path)
        path = cache.put(TINY_SCALE, "PoM", "mcf", result)
        damage(path)
        for _ in range(2):  # a failed eviction stays a miss, not an error
            assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        if path.is_dir():  # unremovable: corrupt on every lookup
            assert cache.stats.corrupt == 2
        else:  # evicted: the second lookup is a plain miss
            assert not path.exists()
            assert cache.stats.corrupt == 1


class TestEvictionAndMaintenance:
    def test_info_and_clear(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.info()["entries"] == 0
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        info = cache.info()
        assert info["entries"] == 1
        assert info["bytes"] > 0
        assert info["root"] == str(tmp_path)
        assert cache.clear() == 1
        assert cache.info()["entries"] == 0

    def test_clear_removes_orphaned_staging_files(self, tmp_path, result):
        """A writer killed between staging and ``os.replace`` leaves its
        ``.tmp`` file behind: ``get`` never reads it, ``clear`` deletes
        it without counting it as an entry."""
        cache = ResultCache(tmp_path)
        path = cache.entry_path(TINY_SCALE, "PoM", "mcf")
        path.parent.mkdir(parents=True)
        stray = path.with_name(f".{path.stem}.{'0' * 32}.tmp")
        stray.write_text(json.dumps({"result": result.to_dict()}))
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        hit = cache.get(TINY_SCALE, "PoM", "mcf")
        assert hit.to_dict() == result.to_dict()
        assert cache.stats.corrupt == 0
        assert cache.info()["entries"] == 1
        assert cache.clear() == 1
        assert list(path.parent.iterdir()) == []

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"


def _racing_put(root, barrier, repeats):
    cache = ResultCache(root)
    result = simulate_cell(TINY_SCALE, "PoM", "mcf")
    barrier.wait()  # maximise overlap between the two writers
    for _ in range(repeats):
        cache.put(TINY_SCALE, "PoM", "mcf", result)


class TestConcurrentWriters:
    def test_two_processes_racing_same_key(self, tmp_path, result):
        """Regression: ``put`` used one shared ``.tmp`` staging path,
        so two processes storing the same key could interleave writes
        and publish a torn entry.  Unique staging names + ``os.replace``
        must leave a valid entry and no stray temp files."""
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_racing_put, args=(str(tmp_path), barrier, 25)
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        cache = ResultCache(tmp_path)
        assert cache.get(TINY_SCALE, "PoM", "mcf") == result
        assert cache.stats.corrupt == 0
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []
