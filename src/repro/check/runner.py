"""The conformance check runner: sample, simulate, compare, report.

Orchestrates the whole ``python -m repro.experiments check`` flow:

1. enumerate the conformance grid (the full design registry ×
   ``SMOKE_SCALE`` workloads — the grid the committed goldens cover);
2. simulate a seeded sample of cells through the sweep runtime
   (:class:`~repro.runtime.SweepExecutor` with telemetry capture, so
   the same runtime every figure uses is itself under test) and
   compare each cell's digests against the
   :class:`~repro.check.GoldenStore`;
3. run the differential execution-path oracle on the sampled cells —
   the golden sweep's own digests are its first path, each other sweep
   path runs once over the whole sample — and the metamorphic
   invariant pack on the first few;
4. fuzz a bounded set of sampled configurations;
5. write the schema-versioned ``CHECK_report.json``.

``--bless`` re-records the **full** grid (never a sample — a partial
store is a false safety net) and requires a changelog note.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

import repro
from repro.check.canonical import result_digest
from repro.check.fuzz import run_fuzz
from repro.check.goldens import GoldenStore, default_goldens_dir
from repro.check.goldens import scale_identity
from repro.check.oracle import (
    PATH_SWEEP,
    Cell,
    PathResult,
    digested_sweep,
    run_execution_paths_batch,
    run_invariants,
)
from repro.check.report import (
    GOLDEN_BLESSED,
    GOLDEN_MATCH,
    GOLDEN_MISMATCH,
    GOLDEN_MISSING,
    CellReport,
    CheckReport,
)
from repro.runtime import SweepExecutor
from repro.telemetry import EventBus

#: Defaults of the CLI subcommand.
DEFAULT_SAMPLE = 6
DEFAULT_FUZZ = 4
DEFAULT_REPORT_OUT = "CHECK_report.json"

#: Cap on the (expensive) per-cell metamorphic pack: the differential
#: oracle runs on every sampled cell, the invariant pack on this many.
MAX_INVARIANT_CELLS = 3

Printer = Callable[[str], None]


def conformance_grid(scale: Any) -> List[Cell]:
    """The full grid the goldens cover: every registered design ×
    every workload of ``scale``, design-major (registry order)."""
    from repro.experiments.designs import REGISTRY

    return [
        (design, workload)
        for design in REGISTRY.labels()
        for workload in scale.benchmarks
    ]


def sample_cells(scale: Any, sample: int, seed: int) -> List[Cell]:
    """A seeded sample of the grid (``sample <= 0`` → the whole grid,
    grid order; otherwise a stable random subset, grid order)."""
    grid = conformance_grid(scale)
    if sample <= 0 or sample >= len(grid):
        return grid
    rng = random.Random(f"repro.check.sample:{seed}")
    chosen = set(rng.sample(range(len(grid)), sample))
    return [cell for index, cell in enumerate(grid) if index in chosen]


def _simulate_sampled(
    scale: Any, cells: Sequence[Cell], jobs: int
) -> Tuple[dict, dict]:
    """Run the sampled cells through the sweep runtime with telemetry
    capture → ``(results, events digests)`` keyed by cell, each stream
    digested and dropped as its cell lands.

    No result cache: conformance must re-simulate (a warm cache would
    compare the store against itself).  No fault plan: an injected
    ``$REPRO_FAULTS`` must not fail — or excuse — a conformance run.
    """
    executor = SweepExecutor(
        jobs=jobs, cache=None, faults=None, telemetry=EventBus(), arena=True
    )
    results, streams, _ = digested_sweep(executor, scale, cells)
    return results, streams


def run_check(
    scale: Any = None,
    *,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
    bless: bool = False,
    note: Optional[str] = None,
    goldens_dir: Optional[Path | str] = None,
    jobs: int = 1,
    fuzz: int = DEFAULT_FUZZ,
    deep: bool = True,
    echo: Optional[Printer] = None,
) -> CheckReport:
    """Run the conformance check; returns the full report.

    ``deep=False`` skips the differential/metamorphic/fuzz phases and
    only verifies golden digests (the fast path tests use).  ``echo``
    receives progress lines (default: stderr).
    """
    if scale is None:
        from repro.experiments.runner import SMOKE_SCALE

        scale = SMOKE_SCALE
    if echo is None:
        def echo(line: str) -> None:
            print(line, file=sys.stderr)

    store = GoldenStore(
        Path(goldens_dir) if goldens_dir is not None else default_goldens_dir()
    )
    report = CheckReport(
        version=repro.__version__,
        scale=scale_identity(scale),
        seed=seed,
        sample=sample,
        bless=bless,
        goldens_dir=str(store.root),
    )

    if bless and (note is None or not note.strip()):
        report.error = (
            "--bless requires --note with a changelog entry explaining "
            "the intentional semantic change"
        )
        return report

    cells = (
        conformance_grid(scale) if bless else sample_cells(scale, sample, seed)
    )
    echo(
        f"[check] {'blessing' if bless else 'verifying'} "
        f"{len(cells)} cell(s) via the sweep runtime (jobs={jobs})"
    )
    results, streams = _simulate_sampled(scale, cells, jobs)

    golden_count = len(store)
    if not bless and golden_count == 0:
        report.error = (
            f"no goldens found under {store.root} — record them first "
            "with: python -m repro.experiments check --bless "
            '--note "initial goldens"'
        )
        return report

    for design, workload in cells:
        digest = result_digest(results[(design, workload)])
        stream = streams[(design, workload)]
        cell = CellReport(
            design=design,
            workload=workload,
            result_digest=digest,
            events_digest=stream,
            golden_status=GOLDEN_MISSING,
        )
        if bless:
            assert note is not None  # validated above
            store.put(scale, design, workload, digest, stream, note)
            cell.golden_status = GOLDEN_BLESSED
            cell.golden_detail = note.strip()
        else:
            golden = store.get(scale, design, workload)
            if golden is None:
                cell.golden_detail = (
                    "cell was never blessed; run check --bless"
                )
            elif (
                golden.result_digest == digest
                and golden.events_digest == stream
            ):
                cell.golden_status = GOLDEN_MATCH
            else:
                cell.golden_status = GOLDEN_MISMATCH
                mismatches = []
                if golden.result_digest != digest:
                    mismatches.append(
                        f"result {digest[:12]} != "
                        f"golden {golden.result_digest[:12]}"
                    )
                if golden.events_digest != stream:
                    mismatches.append(
                        f"events {stream[:12]} != "
                        f"golden {golden.events_digest[:12]}"
                    )
                cell.golden_detail = (
                    "; ".join(mismatches)
                    + f" (blessed at {golden.recorded_version}: "
                    + f"{golden.note!r}) — an intentional semantic "
                    + "change must be re-blessed with --bless --note"
                )
        report.cells.append(cell)

    if deep and not bless:
        count = len(report.cells)
        echo(
            f"[check] differential oracle: sweep paths over {count} "
            "cell(s) (serial cold cache, warm cache, pool, serve)"
        )

        def scalar_line(index: int, cell: Cell) -> None:
            echo(
                f"[check] differential oracle {cell[0]}/{cell[1]} "
                f"({index + 1}/{count})"
            )

        paths = run_execution_paths_batch(
            scale,
            [(cell.design, cell.workload) for cell in report.cells],
            on_cell=scalar_line,
        )
        for cell in report.cells:
            sweep = PathResult(
                PATH_SWEEP, cell.result_digest, cell.events_digest,
                detail=f"jobs={jobs}, arena",
            )
            cell.paths = [sweep] + paths[(cell.design, cell.workload)]
        for cell in report.cells[:MAX_INVARIANT_CELLS]:
            echo(
                f"[check] metamorphic pack {cell.design}/{cell.workload}"
            )
            cell.invariants = run_invariants(
                scale, cell.design, cell.workload
            )
        if fuzz > 0:
            echo(f"[check] fuzzing {fuzz} sampled config(s)")
            report.fuzz = run_fuzz(seed, fuzz)

    return report


def run_check_command(
    *,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
    bless: bool = False,
    note: Optional[str] = None,
    goldens: Optional[str] = None,
    out: Optional[str] = None,
    jobs: int = 1,
    fuzz: int = DEFAULT_FUZZ,
) -> int:
    """CLI entry point: run, print a human summary, write the report.

    Exit codes: ``0`` all green, ``1`` any digest mismatch / failed
    invariant, ``2`` usage error (``--bless`` without ``--note``).
    """
    usage_error = bless and (note is None or not note.strip())
    report = run_check(
        sample=sample,
        seed=seed,
        bless=bless,
        note=note,
        goldens_dir=goldens,
        jobs=jobs,
        fuzz=fuzz,
    )
    if report.error is not None:
        print(f"check: {report.error}", file=sys.stderr)
        return 2 if usage_error else 1

    report_path = report.write(out or DEFAULT_REPORT_OUT)
    summary = report.summary()
    for cell in report.cells:
        marks = []
        marks.append(f"golden={cell.golden_status}")
        if cell.paths:
            marks.append(
                f"paths={len(cell.paths)}"
                f"{'' if cell.paths_agree else ' DIVERGED'}"
            )
        if cell.invariants:
            failed = [i.name for i in cell.invariants if not i.passed]
            marks.append(
                f"invariants={len(cell.invariants)}"
                + (f" FAILED:{','.join(failed)}" if failed else "")
            )
        state = "ok" if cell.passed else "FAIL"
        print(f"  {cell.design:20s} {cell.workload:10s} "
              f"{state:4s} {' '.join(marks)}")
        if not cell.passed and cell.golden_detail:
            print(f"    {cell.golden_detail}")
    for outcome in report.fuzz:
        if not outcome.passed:
            failed = [i.name for i in outcome.invariants if not i.passed]
            print(
                f"  fuzz case {outcome.case.case} "
                f"({outcome.case.design}/{outcome.case.workload}) "
                f"FAILED: {', '.join(failed)}"
            )
    print(
        f"[check] {summary['cells']} cell(s), "
        f"{summary['paths']} path run(s), "
        f"{summary['invariants']} invariant(s), "
        f"{summary['fuzz_cases']} fuzz case(s): "
        f"{'PASS' if report.passed else 'FAIL'} -> {report_path}"
    )
    return 0 if report.passed else 1


__all__ = [
    "DEFAULT_FUZZ",
    "DEFAULT_REPORT_OUT",
    "DEFAULT_SAMPLE",
    "MAX_INVARIANT_CELLS",
    "conformance_grid",
    "run_check",
    "run_check_command",
    "sample_cells",
]
