"""Command-line experiment runner.

Regenerate any of the paper's tables/figures from a shell::

    python -m repro.experiments list
    python -m repro.experiments fig15
    python -m repro.experiments fig18 --accesses 3000 --warmup 6000
    python -m repro.experiments all

Figures run at the benchmark default scale unless overridden.

Sweep execution goes through :mod:`repro.runtime`:

``--jobs N``
    Fan the independent (design, workload) cells out across ``N``
    worker processes (default 1 = serial; results are bit-identical at
    any worker count).
``--cache-dir PATH``
    Where the persistent result cache lives (default:
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``).  A warm cache
    serves repeat runs without re-simulating — the ``[runtime]``
    summary printed after each run shows cells simulated vs served.
``--no-cache``
    Disable the disk cache for this invocation.
``--progress``
    Print one stderr line per completed sweep cell.
``--arena`` / ``--no-arena``
    Compile the workload grid's traces once per sweep into an arena
    that every cell replays, pooled workers from the memory they
    inherit (default on; results are bit-identical either way — the
    ``[runtime]`` trailer's ``arena-bytes=``/``arena-hits=`` fields
    show it working).

Fault tolerance (see docs/RUNTIME.md):

``--timeout SECONDS``
    Per-job wall-clock limit; an overdue worker is terminated and its
    cell retried (pooled execution only — serial cells cannot be
    preempted).
``--retries N``
    Bounded retries per cell after crashes, timeouts, or transient
    exceptions (default 2), with exponential backoff.  A cell that
    still fails raises ``SweepJobError`` carrying (design, workload,
    attempt).
``--resume``
    Deprecated no-op (warns once on stderr): the result cache, on by
    default, is the sweep checkpoint — re-running an interrupted sweep
    on the same ``--cache-dir`` simulates only the cells it did not
    finish, bit-identical to an uninterrupted run.  With
    ``--no-cache`` it is a usage error, since nothing would checkpoint.

``$REPRO_FAULTS`` (e.g. ``seed=7,crash=2,hang=1,corrupt=1,retries=4,
timeout=5``) injects deterministic faults into the sweep — the CI
fault matrix runs on exactly this hook.  The ``[runtime]`` trailer
reports ``retries=/timeouts=/crashes=`` counters.

Telemetry (see docs/TELEMETRY.md) hangs off the same executor:

``--trace`` / ``--trace-out PATH``
    Capture every simulated cell's event stream and write a merged
    trace — Chrome-trace JSON by default (open in ``chrome://tracing``
    or Perfetto), JSONL when ``PATH`` ends in ``.jsonl``.  Cells served
    from the result cache are not re-simulated and contribute no
    events; combine with ``--no-cache`` to trace everything.
``--audit``
    Attach the live SRRT invariant auditor to every simulated cell;
    the run aborts with the offending event window on violation.

The cache itself is managed with the ``cache`` subcommand::

    python -m repro.experiments cache info
    python -m repro.experiments cache clear

The long-running simulation service (see docs/SERVING.md) starts with
the ``serve`` subcommand and drains gracefully on SIGTERM::

    python -m repro.experiments serve --port 8642 --jobs 4

The conformance check (see docs/TESTING.md) verifies a seeded sample
of cells against the committed golden digests, runs every execution
path differentially, and writes ``CHECK_report.json``::

    python -m repro.experiments check --sample 6 --seed 0
    python -m repro.experiments check --bless --note "why semantics moved"

Exit codes are uniform across subcommands: ``0`` success, ``1``
failure (digest mismatch, failed sweep cell, invariant violation),
``2`` usage error (unknown experiment/action, missing ``--note``,
``--resume`` with ``--no-cache``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, Dict

from repro.experiments.figures import (
    run_fig15,
    run_fig16,
    run_fig17,
    run_fig18,
    run_fig19,
    run_fig20,
    run_fig21,
    run_fig22,
    run_fig23,
)
from repro.experiments.longrun_figures import run_fig3, run_fig4, run_fig5
from repro.experiments.os_figures import run_fig2a, run_fig2b, run_fig2c
from repro.experiments.overhead import run_overhead_analysis
from repro.experiments.reporting import format_series
from repro.experiments.runner import DEFAULT_SCALE, Scale
from repro.experiments.tables import run_table1, run_table2
from repro.runtime import (
    ResultCache,
    SweepExecutor,
    default_cache_dir,
    print_progress,
)
from repro.telemetry import EventBus, write_trace


def _scaled(runner):
    def run(scale: Scale, executor: SweepExecutor) -> None:
        print(runner(scale, executor=executor).render())

    return run


def _unscaled(runner):
    def run(scale: Scale, executor: SweepExecutor) -> None:  # noqa: ARG001
        print(runner().render())

    return run


def _fig2c(scale: Scale, executor: SweepExecutor) -> None:  # noqa: ARG001
    timeline, result = run_fig2c(scale)
    print(
        format_series(
            timeline.times,
            {
                "migrated": timeline.series("migrated"),
                "hit_rate": timeline.series("hit_rate"),
            },
            title=result.figure,
        )
    )


def _fig3(scale: Scale, executor: SweepExecutor) -> None:  # noqa: ARG001
    timeline, result = run_fig3()
    print(
        format_series(
            timeline.times,
            {"free_mb": timeline.series("free_mb")},
            title=result.figure,
            max_points=30,
        )
    )


def _overhead(scale: Scale, executor: SweepExecutor) -> None:  # noqa: ARG001
    report = run_overhead_analysis()
    print("Section VI-F: ISA-Alloc/ISA-Free overhead")
    print(f"  ISA events : {report.isa_events / 1e6:,.1f}M (paper 242.8M)")
    print(f"  swap time  : {report.swap_seconds:,.0f}s (paper 2071.89s)")
    print(f"  total time : {report.total_seconds / 3600:,.1f}h (paper 53.8h)")
    print(f"  overhead   : {report.overhead_percent:.2f}% (paper 1.06%)")


EXPERIMENTS: Dict[str, Callable[[Scale, SweepExecutor], None]] = {
    "table1": _unscaled(run_table1),
    "table2": _unscaled(run_table2),
    "fig2a": _scaled(run_fig2a),
    "fig2b": _scaled(run_fig2b),
    "fig2c": _fig2c,
    "fig3": _fig3,
    "fig4": _unscaled(run_fig4),
    "fig5": _unscaled(run_fig5),
    "fig15": _scaled(run_fig15),
    "fig16": _scaled(run_fig16),
    "fig17": _scaled(run_fig17),
    "fig18": _scaled(run_fig18),
    "fig19": _scaled(run_fig19),
    "fig20": _scaled(run_fig20),
    "fig21": _scaled(run_fig21),
    "fig22": _scaled(run_fig22),
    "fig23": _scaled(run_fig23),
    "overhead": _overhead,
}


def _run_cache_command(action: str | None, cache: ResultCache) -> int:
    if action == "info":
        info = cache.info()
        print(f"root         : {info['root']}")
        print(f"entries      : {info['entries']}")
        print(f"bytes        : {info['bytes']:,}")
        print(f"version key  : {info['version']}")
        print(f"result schema: {info['result_schema']}")
        return 0
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    problem = (
        "missing cache action"
        if action is None
        else f"unknown cache action {action!r}"
    )
    print(f"{problem}; expected 'info' or 'clear'", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (e.g. fig15), 'list', 'all', "
            "'cache' (with 'info'/'clear'), 'serve', or 'check'"
        ),
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help="cache subcommand action: 'info' or 'clear'",
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=DEFAULT_SCALE.accesses_per_core,
        help="measured accesses per core",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=DEFAULT_SCALE.warmup_per_core,
        help="warm-up accesses per core",
    )
    parser.add_argument(
        "--fast-mb",
        type=float,
        default=DEFAULT_SCALE.fast_mb,
        help="stacked-DRAM capacity in MB (scaled system)",
    )
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"must be >= 1, got {value}"
            )
        return value

    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes for sweep cells (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persistent result-cache directory "
            "(default: $REPRO_CACHE_DIR or ~/.cache/repro/sweeps)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-cell progress to stderr",
    )
    parser.add_argument(
        "--arena",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "compile each sweep's traces once into an arena that every "
            "cell replays instead of regenerating its trace "
            "(results are identical either way; --no-arena disables)"
        ),
    )
    def positive_float(text: str) -> float:
        value = float(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
        return value

    parser.add_argument(
        "--timeout",
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-job wall-clock timeout; an overdue worker is killed "
            "and its cell retried (default: none)"
        ),
    )
    def nonnegative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    parser.add_argument(
        "--retries",
        type=nonnegative_int,
        default=None,
        metavar="N",
        help=(
            "retries per cell after a crash/timeout/transient error "
            "(default: 2)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "deprecated, does nothing: the result cache (on by "
            "default) already re-runs only the cells an interrupted "
            "sweep did not finish; an error with --no-cache"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="capture telemetry events from every simulated cell",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "trace output file (implies --trace): .jsonl for an event "
            "log, anything else for Chrome-trace/Perfetto JSON "
            "(default: trace.json)"
        ),
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run the live SRRT invariant auditor in every cell",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help=(
            "check subcommand: output JSON path "
            "(default CHECK_report.json)"
        ),
    )
    parser.add_argument(
        "--sample",
        type=nonnegative_int,
        default=None,
        metavar="N",
        help=(
            "check subcommand: verify N sampled cells against the "
            "goldens (0 = the full grid; default 6)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="check subcommand: sampling/fuzzing seed (default 0)",
    )
    parser.add_argument(
        "--bless",
        action="store_true",
        help=(
            "check subcommand: re-record the full golden grid "
            "(requires --note with a changelog entry)"
        ),
    )
    parser.add_argument(
        "--note",
        default=None,
        metavar="TEXT",
        help=(
            "check subcommand: changelog note stored with blessed "
            "goldens (mandatory with --bless)"
        ),
    )
    parser.add_argument(
        "--goldens",
        default=None,
        metavar="PATH",
        help=(
            "check subcommand: golden store directory "
            "(default: $REPRO_GOLDENS or tests/goldens)"
        ),
    )
    parser.add_argument(
        "--fuzz",
        type=nonnegative_int,
        default=None,
        metavar="N",
        help=(
            "check subcommand: seeded fuzz cases to run "
            "(default 4; 0 disables)"
        ),
    )
    parser.add_argument(
        "--host",
        default=None,
        help="serve subcommand: bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve subcommand: TCP port (0 picks a free one)",
    )
    parser.add_argument(
        "--max-queue",
        type=positive_int,
        default=None,
        help="serve subcommand: pending-queue bound before 429s",
    )
    parser.add_argument(
        "--max-batch",
        type=positive_int,
        default=None,
        help="serve subcommand: cells per dispatched executor sweep",
    )
    parser.add_argument(
        "--hold",
        action="store_true",
        help=(
            "serve subcommand: accept and queue requests but do not "
            "dispatch them (maintenance / drain testing)"
        ),
    )
    args = parser.parse_args(argv)
    if args.resume:
        if args.no_cache:
            print(
                "error: --resume needs the result cache, the sweep "
                "checkpoint; drop --no-cache",
                file=sys.stderr,
            )
            return 2
        print(
            "warning: --resume is deprecated and does nothing: the "
            "result cache already re-runs only unfinished cells",
            file=sys.stderr,
        )

    cache_dir = args.cache_dir or default_cache_dir()
    if args.experiment == "cache":
        return _run_cache_command(args.action, ResultCache(cache_dir))

    if args.experiment == "check":
        from repro.check import DEFAULT_SAMPLE, run_check_command
        from repro.check.runner import DEFAULT_FUZZ

        return run_check_command(
            sample=args.sample if args.sample is not None else DEFAULT_SAMPLE,
            seed=args.seed,
            bless=args.bless,
            note=args.note,
            goldens=args.goldens,
            out=args.out,
            jobs=args.jobs,
            fuzz=args.fuzz if args.fuzz is not None else DEFAULT_FUZZ,
        )

    if args.experiment == "serve":
        from repro.serve import DEFAULT_HOST, DEFAULT_PORT, SimServer
        from repro.serve.dispatcher import DEFAULT_MAX_BATCH
        from repro.serve.scheduler import DEFAULT_MAX_QUEUE

        server = SimServer(
            host=args.host if args.host is not None else DEFAULT_HOST,
            port=args.port if args.port is not None else DEFAULT_PORT,
            jobs=args.jobs,
            cache=None if args.no_cache else ResultCache(cache_dir),
            checkpoint_dir=cache_dir,
            max_queue=(
                args.max_queue
                if args.max_queue is not None
                else DEFAULT_MAX_QUEUE
            ),
            max_batch=(
                args.max_batch
                if args.max_batch is not None
                else DEFAULT_MAX_BATCH
            ),
            hold=args.hold,
            timeout=args.timeout,
            retries=args.retries,
            arena=args.arena,
        )
        server.run()
        return 0

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    # A fresh invocation answers from the *disk* cache, never from a
    # stale in-process memo (which only exists when main() is called
    # programmatically, e.g. from tests).
    from repro.experiments.runner import clear_sweep_cache

    clear_sweep_cache()
    trace = args.trace or args.trace_out is not None
    executor = SweepExecutor(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(cache_dir),
        on_cell=print_progress if args.progress else None,
        telemetry=EventBus() if trace else None,
        audit=args.audit,
        timeout=args.timeout,
        retries=args.retries,
        arena=args.arena,
    )
    scale = dataclasses.replace(
        DEFAULT_SCALE,
        accesses_per_core=args.accesses,
        warmup_per_core=args.warmup,
        fast_mb=args.fast_mb,
    )

    def report_runtime() -> None:
        if executor.metrics.cells_total:
            print(f"[runtime] {executor.metrics.summary()}", file=sys.stderr)
        if trace:
            out = args.trace_out or "trace.json"
            tracks = {
                f"{design}/{workload}": stream
                for (design, workload), stream in executor.events.items()
            }
            count = write_trace(tracks, out)
            audited = " audit=on" if args.audit else ""
            print(
                f"[telemetry] {count} events from {len(tracks)} "
                f"simulated cell(s) -> {out}{audited}",
                file=sys.stderr,
            )

    # Operational failures (an exhausted cell, a tripped invariant
    # auditor) exit 1 with a one-line diagnosis rather than a raw
    # traceback — uniform with the check subcommand, and what
    # shell pipelines and CI gates key on.
    from repro.runtime import SweepJobError
    from repro.telemetry import InvariantViolation

    if args.experiment == "all":
        try:
            for name, runner in EXPERIMENTS.items():
                print(f"==== {name} ====")
                runner(scale, executor)
                print()
        except (SweepJobError, InvariantViolation) as exc:
            print(f"error: {exc}", file=sys.stderr)
            report_runtime()
            return 1
        report_runtime()
        return 0

    runner = EXPERIMENTS.get(args.experiment)
    if runner is None:
        known = ", ".join(EXPERIMENTS)
        print(
            f"unknown experiment {args.experiment!r}; known: {known}",
            file=sys.stderr,
        )
        return 2
    try:
        runner(scale, executor)
    except (SweepJobError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        report_runtime()
        return 1
    report_runtime()
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early.
        raise SystemExit(0) from None
