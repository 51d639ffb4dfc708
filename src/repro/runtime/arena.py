"""Precompiled trace arena: each sweep compiles its workload traces once.

Every figure sweep replays the same Table II workload traces across
many designs, yet a cell on its own re-synthesises its workload trace
from the spec — trace generation would be paid ``designs × workloads``
times instead of ``workloads`` times.  The arena fixes that: the
parent process compiles each workload in the sweep grid once
(:func:`repro.workloads.compile_trace`), marks the columns read-only
and registers them in :data:`PUBLISHED` under a handle.  Pool workers
are forked after the publish, so they inherit the registry with the
parent's memory; every cell — inline or pooled — looks its trace up by
the manifest's handle.  Nothing is copied and nothing crosses the job
pipe but the small JSON-safe manifest.

The handle is ``<content key prefix>-<publisher pid>``; the content key
is SHA-256 over the canonical JSON of ``(Scale, workload names,
repro.__version__)``, the same idiom as
:class:`~repro.runtime.cache.ResultCache` keys.

Degradation never changes results:

* a grid whose estimated payload exceeds the budget
  (:data:`DEFAULT_ARENA_BUDGET`, or the executor's ``arena_budget``)
  → :meth:`TraceArena.publish` returns ``None`` and cells regenerate;
* a process that did not inherit the registry (a non-``fork`` start
  method) or a disposed handle → :func:`attach_arena` raises
  ``OSError`` and the cell regenerates — byte-identical, since compiled
  traces come from the same seeded generators.

Lifetime: the publishing executor calls :meth:`TraceArena.dispose` in
a ``finally`` block, so a crashed, failed or interrupted sweep leaves
no trace set registered in the parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional, Sequence

from repro._version import __version__
from repro.workloads import benchmark, build_workload
from repro.workloads.compiled import CompiledTrace, compile_trace

#: Default arena size budget (bytes): the most compiled-trace memory a
#: sweep's parent holds; larger grids fall back to per-cell generation.
DEFAULT_ARENA_BUDGET = 256 * 1024 * 1024

#: Raw bytes per trace record across the three columns (two ``int64``
#: plus one ``bool``) — the pre-compile budget estimate.
_BYTES_PER_RECORD = 17

#: Handle → ``{workload: CompiledTrace}`` for every live arena published
#: by this process (or inherited from the parent that forked it).
PUBLISHED: Dict[str, Dict[str, CompiledTrace]] = {}


def arena_key(scale, workloads: Sequence[str]) -> str:
    """Content address of an arena: Scale + workload names + version."""
    payload = {
        "scale": dataclasses.asdict(scale),
        "workloads": list(workloads),
        "version": __version__,
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _freeze(trace: CompiledTrace) -> CompiledTrace:
    """Mark every column read-only: cells share these arrays."""
    for core in trace.cores:
        batch = core.batch
        for column in (
            batch.addresses,
            batch.icount_gaps,
            batch.is_writes,
            core.batch_lengths,
        ):
            column.flags.writeable = False
    return trace


class TraceArena:
    """Parent-side handle on a published set of compiled traces.

    Create with :meth:`publish`; pass :attr:`manifest` to cells (it is
    a plain dict); call :meth:`dispose` — idempotent — when the sweep
    is done.
    """

    def __init__(
        self, handle: str, traces: Dict[str, CompiledTrace]
    ) -> None:
        self.nbytes = sum(trace.nbytes for trace in traces.values())
        self.manifest: Dict[str, Any] = {
            "handle": handle,
            "bytes": self.nbytes,
        }

    @classmethod
    def publish(
        cls,
        scale,
        workloads: Sequence[str],
        budget: Optional[int] = None,
    ) -> Optional["TraceArena"]:
        """Compile ``workloads`` at ``scale`` and register them.

        Returns ``None`` (callers fall back to per-cell generation)
        for an empty grid or one whose estimated payload exceeds
        ``budget`` (default :data:`DEFAULT_ARENA_BUDGET`).
        """
        names = sorted(set(workloads))
        if not names:
            return None
        total_per_core = scale.warmup_per_core + scale.accesses_per_core
        estimate = (
            len(names) * scale.num_copies * total_per_core * _BYTES_PER_RECORD
        )
        if estimate > (DEFAULT_ARENA_BUDGET if budget is None else budget):
            return None
        config = scale.config()
        traces: Dict[str, CompiledTrace] = {}
        for name in names:
            workload = build_workload(
                config,
                benchmark(name),
                num_copies=scale.num_copies,
                seed=scale.seed,
            )
            traces[name] = _freeze(compile_trace(workload, total_per_core))
        handle = f"{arena_key(scale, names)[:12]}-{os.getpid()}"
        PUBLISHED[handle] = traces
        return cls(handle, traces)

    def dispose(self) -> None:
        """Drop the registry entry (idempotent)."""
        PUBLISHED.pop(self.manifest["handle"], None)


def attach_arena(manifest: Dict[str, Any]) -> Dict[str, CompiledTrace]:
    """The published ``{workload: CompiledTrace}`` map of ``manifest``.

    Raises ``OSError`` when this process holds no such arena (disposed,
    or a worker started without inheriting the parent's memory);
    callers regenerate.
    """
    try:
        return PUBLISHED[manifest["handle"]]
    except KeyError:
        raise OSError(
            f"trace arena {manifest.get('handle')!r} is not published "
            f"in process {os.getpid()}"
        ) from None


__all__ = [
    "DEFAULT_ARENA_BUDGET",
    "PUBLISHED",
    "TraceArena",
    "arena_key",
    "attach_arena",
]
