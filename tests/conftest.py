"""Shared fixtures and helpers for the whole suite (docs/TESTING.md).

Centralises what the runtime/arena/serve suites used to re-declare
ad hoc: the canonical tiny execution scales, deterministic RNG
seeding, and the temporary cache/golden directory layout a
sweep-runtime test needs.  Test modules import the helpers as
``from tests.conftest import tiny_scale`` (the ``tests`` package has an
``__init__.py`` precisely so this works) and take the fixtures by name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Sequence

import pytest

from repro.experiments.runner import Scale

#: One seed for the whole session: every derived RNG is a pure
#: function of this and a stable per-test key, so a failure replays
#: exactly — no wall clock, no hash randomisation, no test-order
#: dependence.
SESSION_SEED = 1729


def tiny_scale(
    accesses: int = 120,
    warmup: int | None = None,
    num_copies: int = 2,
    fast_mb: float = 1.0,
    benchmarks: Sequence[str] = ("mcf",),
    seed: int = 0,
) -> Scale:
    """The canonical small test scale (warmup defaults to ``accesses``).

    Every suite that needs a sub-second cell builds it through here so
    "tiny" means one thing across the test tree.
    """
    return Scale(
        fast_mb=fast_mb,
        accesses_per_core=accesses,
        warmup_per_core=accesses if warmup is None else warmup,
        num_copies=num_copies,
        benchmarks=tuple(benchmarks),
        seed=seed,
    )


#: The default two-workload tiny grid (arena/check suites).
TINY_SCALE = tiny_scale(benchmarks=("mcf", "bwaves"))


def scale_request_kwargs(scale: Scale) -> Dict[str, Any]:
    """``Scale`` → the serve wire-format scale fields (the kwargs a
    :class:`repro.serve.SimRequest` takes besides design/workload)."""
    return {
        "fast_mb": scale.fast_mb,
        "accesses_per_core": scale.accesses_per_core,
        "warmup_per_core": scale.warmup_per_core,
        "num_copies": scale.num_copies,
    }


@pytest.fixture(scope="session")
def session_seed() -> int:
    """The session's deterministic base RNG seed."""
    return SESSION_SEED


@pytest.fixture
def rng(session_seed: int, request: pytest.FixtureRequest) -> random.Random:
    """A per-test deterministic RNG, derived from the session seed and
    the test's node id (string seeding is hash-randomisation-proof)."""
    return random.Random(f"{session_seed}:{request.node.nodeid}")


@dataclass(frozen=True)
class RuntimeDirs:
    """The on-disk surfaces a sweep-runtime test touches, pre-made
    and isolated per test."""

    cache: Path
    goldens: Path
    scratch: Path


@pytest.fixture
def runtime_dirs(tmp_path: Path) -> RuntimeDirs:
    """Separate cache/golden/scratch dirs under ``tmp_path``
    (sharing one directory hides key collisions between subsystems)."""
    dirs = RuntimeDirs(
        cache=tmp_path / "cache",
        goldens=tmp_path / "goldens",
        scratch=tmp_path / "scratch",
    )
    for path in (dirs.cache, dirs.goldens, dirs.scratch):
        path.mkdir()
    return dirs


@pytest.fixture
def isolated_cache_dir(
    monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> Path:
    """Point ``$REPRO_CACHE_DIR`` at a per-test directory so CLI runs
    without ``--cache-dir`` never touch the user's home."""
    path = tmp_path / "default-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


@pytest.fixture
def spawned(monkeypatch: pytest.MonkeyPatch) -> list:
    """Every pool worker a :class:`SweepExecutor` forks during the
    test, in spawn order (counts spawns without changing them)."""
    from repro.runtime.executor import SweepExecutor

    workers: list = []
    spawn = SweepExecutor._spawn

    def counting_spawn(self, ctx):
        worker = spawn(self, ctx)
        workers.append(worker)
        return worker

    monkeypatch.setattr(SweepExecutor, "_spawn", counting_spawn)
    return workers
