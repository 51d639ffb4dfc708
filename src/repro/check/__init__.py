"""``repro.check`` — golden-run conformance and differential testing.

The correctness-tooling subsystem behind ``python -m repro.experiments
check``: a content-addressed :class:`GoldenStore` of blessed result and
event-stream digests (committed under ``tests/goldens/``), a
differential oracle that runs each distinct execution path once per
cell, each sweep path as one sweep over the sample — the golden sweep
itself (chunked kernel, trace arena), the scalar reference, the serial
runtime into a cold result cache, the warm replay of that cache, a
worker pool on the arena, and the :mod:`repro.serve` round trip — and
asserts byte-identical canonical
results, a metamorphic invariant pack and a bounded seeded config
fuzzer, both reading one captured chunked run per cell.  See
``docs/TESTING.md`` for the workflow.
"""

from repro.check.canonical import (
    INFRASTRUCTURE_EVENT_KINDS,
    canonical_json_bytes,
    events_digest,
    payload_digest,
    result_digest,
)
from repro.check.fuzz import FuzzCase, FuzzOutcome, generate_cases, run_fuzz
from repro.check.goldens import (
    GOLDEN_SCHEMA_VERSION,
    GoldenRecord,
    GoldenStore,
    cell_key,
    default_goldens_dir,
    scale_identity,
)
from repro.check.oracle import (
    InvariantResult,
    PathResult,
    run_execution_paths,
    run_execution_paths_batch,
    run_invariants,
)
from repro.check.report import (
    GOLDEN_BLESSED,
    GOLDEN_MATCH,
    GOLDEN_MISMATCH,
    GOLDEN_MISSING,
    REPORT_SCHEMA_VERSION,
    CellReport,
    CheckReport,
)
from repro.check.runner import (
    DEFAULT_SAMPLE,
    conformance_grid,
    run_check,
    run_check_command,
    sample_cells,
)

__all__ = [
    "CellReport",
    "CheckReport",
    "DEFAULT_SAMPLE",
    "FuzzCase",
    "FuzzOutcome",
    "GOLDEN_BLESSED",
    "GOLDEN_MATCH",
    "GOLDEN_MISMATCH",
    "GOLDEN_MISSING",
    "GOLDEN_SCHEMA_VERSION",
    "GoldenRecord",
    "GoldenStore",
    "INFRASTRUCTURE_EVENT_KINDS",
    "InvariantResult",
    "PathResult",
    "REPORT_SCHEMA_VERSION",
    "canonical_json_bytes",
    "cell_key",
    "conformance_grid",
    "default_goldens_dir",
    "events_digest",
    "generate_cases",
    "payload_digest",
    "result_digest",
    "run_check",
    "run_check_command",
    "run_execution_paths",
    "run_execution_paths_batch",
    "run_fuzz",
    "run_invariants",
    "sample_cells",
    "scale_identity",
]
