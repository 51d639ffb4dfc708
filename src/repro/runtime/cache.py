"""Content-addressed on-disk result cache for sweep cells.

Each ``(Scale, design, workload)`` simulation cell is deterministic
(seeded workload synthesis, no wall-clock dependence), so its
:class:`~repro.sim.SimulationResult` can be cached across processes and
CLI invocations.  The cache key is the SHA-256 of the canonical JSON of

    {scale fields, design label, workload name,
     repro.__version__, result schema version, model source digest}

so any change to the experiment scale, the library version, the wire
format or the source of the model packages (:data:`MODEL_PACKAGES`)
addresses a different entry — stale results are never returned, they
are simply orphaned (and reclaimable with ``cache clear``).

Entries are one JSON file each, sharded by digest prefix
(``<root>/ab/abcdef....json``).  The cache is unbounded; ``cache
clear`` prunes it.  All traffic is counted in :class:`CacheStats`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import uuid
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.sim import RESULT_SCHEMA_VERSION, SimulationResult

#: ``json.dumps(..., sort_keys=True)`` without building an encoder per
#: key (same defaults, so the same bytes).
_KEY_ENCODER = json.JSONEncoder(sort_keys=True)

#: The modules and packages of ``repro`` whose source produces a
#: :class:`~repro.sim.SimulationResult`; the cache key carries a digest
#: of their bytes (:func:`model_digest`).
MODEL_PACKAGES = (
    "config", "sim", "arch", "core", "dram", "osmodel", "workloads",
    "cpu", "stats", "trace",
)


@functools.lru_cache(maxsize=None)
def model_digest() -> str:
    """SHA-256 over the sorted relative paths and bytes of every ``.py``
    file of :data:`MODEL_PACKAGES`, computed once per process.

    Any edit to the model — a committed change or an uncommitted local
    one, a comment included — addresses new cache entries, so a warm
    cache never serves results the current code would not produce.
    """
    root = Path(__file__).resolve().parents[1]
    files = sorted(
        path.relative_to(root).as_posix()
        for name in MODEL_PACKAGES
        for pattern in (f"{name}.py", f"{name}/**/*.py")
        for path in root.glob(pattern)
    )
    digest = hashlib.sha256()
    for relative in files:
        digest.update(relative.encode() + b"\0")
        digest.update((root / relative).read_bytes() + b"\0")
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweeps"


@dataclass
class CacheStats:
    """Traffic accounting for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Unreadable/truncated/incompatible entries dropped on lookup
    #: (each also counts as a miss).
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Persistent map ``(scale, design, workload) -> SimulationResult``."""

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        version: str | None = None,
    ) -> None:
        if version is None:
            from repro import __version__ as version
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = version
        self.stats = CacheStats()

    # -- keying --------------------------------------------------------

    def key(self, scale: Any, design: str, workload: str) -> str:
        """SHA-256 digest of the canonical cell description."""
        return self._digest(self.describe(scale, design, workload))

    @staticmethod
    def _digest(description: Dict[str, Any]) -> str:
        canonical = _KEY_ENCODER.encode(description)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(
        self, scale: Any, design: str, workload: str
    ) -> Dict[str, Any]:
        """The cell's identity, as stored alongside each entry.

        The scale's ``benchmarks`` tuple is *excluded*: it lists the
        cell's sweep siblings, which never influence the cell's own
        result (cells share no state).  Keying on it would give the
        same simulation a different address depending on which grid —
        or which :mod:`repro.serve` dispatch batch — it happened to
        run in.  The other fields are scalars, read as they are (the
        JSON ``dataclasses.asdict`` would give, without its deep copy).
        ``model`` is :func:`model_digest`.
        """
        return {
            "scale": {
                field.name: getattr(scale, field.name)
                for field in fields(scale)
                if field.name != "benchmarks"
            },
            "design": design,
            "workload": workload,
            "version": self.version,
            "result_schema": RESULT_SCHEMA_VERSION,
            "model": model_digest(),
        }

    def _file(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    def entry_path(self, scale: Any, design: str, workload: str) -> Path:
        """Where the cell's entry lives (whether or not it exists)."""
        return Path(self._file(self.key(scale, design, workload)))

    # -- traffic -------------------------------------------------------

    def get(
        self, scale: Any, design: str, workload: str
    ) -> Optional[SimulationResult]:
        """The cached result, or ``None`` (counted as hit/miss).

        A corrupt entry — truncated file, invalid JSON or UTF-8, wrong
        payload shape, incompatible result schema, even an unreadable
        file — **never raises**: it is evicted and counted as a miss
        (plus ``stats.corrupt``), so one damaged
        file costs one re-simulation, not the sweep.
        """
        path = self._file(self.key(scale, design, workload))
        try:
            with open(path, "rb") as entry:
                payload = json.loads(entry.read())
            result = SimulationResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (
            OSError,
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ):
            # Corrupt or incompatible entry: drop it and report a miss.
            # (Invalid UTF-8 raises UnicodeDecodeError, a ValueError.)
            try:
                os.unlink(path)
            except OSError:
                pass  # gone, or unremovable (a directory): still a miss
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(
        self,
        scale: Any,
        design: str,
        workload: str,
        result: SimulationResult,
    ) -> Path:
        """Persist ``result``.

        Safe under concurrent writers: each writer stages into its own
        uniquely-named temp file and publishes with :func:`os.replace`,
        so two processes racing the same key (``--jobs`` sweeps or
        :mod:`repro.serve` dispatch batches sharing a cache dir) each
        land a complete entry — last replace wins, and readers never
        observe a partial file.  A shared ``.tmp`` name would let the
        racers interleave writes into one file and publish garbage.
        """
        description = self.describe(scale, design, workload)
        digest = self._digest(description)
        path = Path(self._file(digest))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": description, "result": result.to_dict()}
        tmp = path.with_name(f".{digest}.{uuid.uuid4().hex}.tmp")
        try:
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, path)  # atomic publish, even when racing
        finally:
            tmp.unlink(missing_ok=True)  # only if the replace never ran
        self.stats.stores += 1
        return path

    # -- maintenance ---------------------------------------------------

    def _entries(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob("??/*.json"))

    def info(self) -> Dict[str, Any]:
        """Inventory: root, entry count, total bytes, version keyed."""
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "version": self.version,
            "result_schema": RESULT_SCHEMA_VERSION,
        }

    def clear(self) -> int:
        """Delete every entry, and any staging file a writer killed
        mid-:meth:`put` left behind (:meth:`get` never reads those);
        returns how many entries were removed."""
        entries = self._entries()
        for path in entries + list(self.root.glob("??/.*.tmp")):
            path.unlink(missing_ok=True)
        return len(entries)


__all__ = [
    "CacheStats",
    "MODEL_PACKAGES",
    "ResultCache",
    "default_cache_dir",
    "model_digest",
]
