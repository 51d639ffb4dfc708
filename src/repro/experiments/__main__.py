"""Command-line experiment runner.

Regenerate any of the paper's tables/figures from a shell::

    python -m repro.experiments list
    python -m repro.experiments fig15
    python -m repro.experiments fig18 --accesses 3000 --warmup 6000
    python -m repro.experiments all

Figures run at the benchmark default scale unless overridden.  The
experiment ids, and what each prints, come from
:mod:`repro.experiments.artefacts`.  ``--help`` lists every option.
Sweep execution (``--jobs``, the result cache, ``--timeout``,
``--retries``, ``$REPRO_FAULTS``) is described in docs/RUNTIME.md,
``--trace`` and ``--audit`` in docs/TELEMETRY.md, and the other
subcommands in docs/RUNTIME.md, docs/SERVING.md and docs/TESTING.md::

    python -m repro.experiments cache info
    python -m repro.experiments serve --port 8642 --jobs 4
    python -m repro.experiments check --sample 6 --seed 0

Exit codes are uniform across subcommands: ``0`` success, ``1``
failure (digest mismatch, failed sweep cell, invariant violation),
``2`` usage error (unknown experiment/action, an option that only
another subcommand reads, missing ``--note``, ``--resume`` with
``--no-cache``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.experiments.artefacts import ARTEFACTS
from repro.experiments.runner import DEFAULT_SCALE
from repro.runtime import (
    ResultCache,
    SweepExecutor,
    default_cache_dir,
    print_progress,
)
from repro.telemetry import EventBus, write_trace

#: Options that one kind of invocation reads ("run" is an experiment id
#: or 'all'); any other invocation rejects them rather than ignore them.
_OWNERS = {
    dest: owner
    for owner, dests in (
        ("run", "accesses warmup fast_mb progress trace trace_out audit"),
        ("check", "out sample seed bless note goldens fuzz"),
        ("serve", "host port max_queue max_batch hold"),
    )
    for dest in dests.split()
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
    # An option pre-set on the namespace keeps argparse from filling in
    # its default, so an owned option still holding ``unset`` was not
    # given on the command line.
    unset = object()
    args = parser.parse_args(
        argv, namespace=argparse.Namespace(**dict.fromkeys(_OWNERS, unset))
    )
    command = args.experiment
    if command not in ("list", "cache", "check", "serve"):
        command = "run"
    # Owned options given on the command line: check and serve pass
    # them on as keywords and leave the rest at their own defaults.
    given = {}
    for dest, owner in _OWNERS.items():
        value = getattr(args, dest)
        if value is unset:
            setattr(args, dest, parser.get_default(dest))
            continue
        if owner != command:
            where = (
                "experiment runs" if owner == "run"
                else f"the {owner!r} subcommand"
            )
            print(
                f"error: --{dest.replace('_', '-')} belongs to {where}, "
                f"not {args.experiment!r}",
                file=sys.stderr,
            )
            return 2
        given[dest] = value
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
        from repro.check import run_check_command

        return run_check_command(jobs=args.jobs, **given)

    if args.experiment == "serve":
        from repro.serve import SimServer

        server = SimServer(
            jobs=args.jobs,
            cache=None if args.no_cache else ResultCache(cache_dir),
            checkpoint_dir=cache_dir,
            timeout=args.timeout,
            retries=args.retries,
            arena=args.arena,
            **given,
        )
        server.run()
        return 0

    if args.experiment == "list":
        for name in ARTEFACTS:
            print(name)
        return 0

    artefact = ARTEFACTS.get(args.experiment)
    if artefact is None and args.experiment != "all":
        known = ", ".join(ARTEFACTS)
        print(
            f"unknown experiment {args.experiment!r}; known: {known}",
            file=sys.stderr,
        )
        return 2

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

    run_all = args.experiment == "all"
    selected = list(ARTEFACTS.values()) if run_all else [artefact]
    try:
        for artefact in selected:
            if run_all:
                print(f"==== {artefact.id} ====")
            print(artefact.render(artefact.run(scale, executor)))
            if run_all:
                print()
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
