"""Run the benchmark: every workload (or one) in a fresh process.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T]
                         [--trace 0|1] [--out FILE] [--history FILE]
                         [--label TAG]

For each workload it times set-up (spawn to the child's ``READY``
line) in set-up-only children before and after the measuring child and
in the measuring child itself, measures for ``--seconds``, checks the
outputs, prints every metric by name with its unit, appends one row per
workload to the history ledger, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 1`` the metrics are the per-layer ones and a Chrome
trace is written to ``bench/out/trace-<workload>.json``.

The ``command`` of ``BENCHMARK.json`` is run as ``python3 bench/run.py
--workload W --seed S --seconds T --trace 0|1``, one workload per
invocation with ``T`` its ``run_seconds``: that is what ``--workload``
and ``--seconds`` are for.  ``--seconds`` defaults to ``run_seconds``;
every history row records it, and ``compare.py`` refuses to compare
runs of different lengths.

Exit status: 0 when every output checked out, 1 on a correctness
failure (including a program that raised or crashed mid-run), 2 when
the benchmark itself cannot run (no ``src/``, a metric missing from or
undeclared in ``BENCHMARK.json``, a child that died without a result).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH / "out"
HISTORY = BENCH / "history.jsonl"

WORKLOADS = ("fig18-serial", "grid-pool", "serve-mixed", "check-full")

#: Set-up-only children spawned before and again after the measuring
#: one; the median of all their set-up times is reported.  Set-up noise
#: on a shared host comes in bursts of seconds, so samples taken ~20 s
#: apart agree better than consecutive ones.
SETUPS_AROUND = 4

#: The reference spawn: the interpreter and numpy, the program's one
#: large third-party import, and none of the program's own code.  Each
#: set-up is timed right after one and reported at reference host speed,
#: scaled by :data:`REFERENCE_SPAWN_S` over it.  Set-up is process start
#: and imports, which the calibration kernel of ``measure.HostSpeed``
#: does not track, but a spawn does: in 12 groups of 9 set-ups spaced
#: like a run's, scaling cut the spread of the group medians from 0.20
#: to 0.05.
REFERENCE_SPAWN = (sys.executable, "-c", "import numpy")

#: The median of 40 reference spawns on the 2-vCPU 2.1 GHz VM the
#: baselines come from.
REFERENCE_SPAWN_S = 0.18

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a correctness failure)."""


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def child_command(workload: str, seed: int, seconds: float, trace: int,
                  setup_only: bool) -> List[str]:
    command = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    return command + (["--setup-only"] if setup_only else [])


def child_env() -> Dict[str, str]:
    """The program sees only the checkout: its sources on the path, its
    temporary files under ``bench/out``, no inherited ``REPRO_*``
    settings (fault injection, cache or golden locations)."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               TMPDIR=str(tmp))
    return env


def reference_spawn() -> float:
    """Seconds one :data:`REFERENCE_SPAWN` takes."""
    start = time.perf_counter()
    try:
        done = subprocess.run(REFERENCE_SPAWN, cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL, timeout=60.0)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the reference spawn timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"the reference spawn exited with {done.returncode}")
    return time.perf_counter() - start


def run_child(
    command: List[str],
) -> Tuple[Optional[float], Optional[Dict[str, Any]]]:
    """Spawn one child: ``(seconds to READY, its RESULT record)``, each
    ``None`` when the child did not print it (a failed set-up prints a
    record and no ``READY``; a successful set-up-only child no record)."""
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    watchdog.start()
    ready: Optional[float] = None
    record: Optional[Dict[str, Any]] = None
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                record = json.loads(line[len("RESULT "):])
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        if process.stdout is not None:
            process.stdout.close()
    if process.returncode != 0 or (ready is None and record is None):
        raise BenchError(
            f"{' '.join(command[2:])} exited with {process.returncode}"
        )
    return ready, record


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> Dict[str, Any]:
    """One workload's record; an incorrect one as soon as any child
    reports a failure."""
    raw: List[float] = []
    references: List[float] = []
    scaled: List[float] = []

    def spawn(setup_only: bool) -> Optional[Dict[str, Any]]:
        # A traced run reports no set-up time.
        reference = 0.0 if trace else reference_spawn()
        ready, record = run_child(
            child_command(workload, seed, seconds, trace, setup_only)
        )
        if ready is not None and not trace:
            raw.append(ready)
            references.append(reference)
            scaled.append(ready * REFERENCE_SPAWN_S / reference)
        return record

    around = 0 if trace else SETUPS_AROUND
    for _ in range(around):
        failure = spawn(setup_only=True)
        if failure is not None:
            return failure
    record = spawn(setup_only=False)
    if record is None:
        raise BenchError(f"{workload}: the child printed no result")
    if not record["correct"]:
        return record
    for _ in range(around):
        failure = spawn(setup_only=True)
        if failure is not None:
            return failure
    if not trace:
        record["metrics"] = {"setup_s": statistics.median(scaled),
                             **record["metrics"]}
    record["extra"]["setup_samples_s"] = raw
    record["extra"]["reference_spawns_s"] = references
    return record


def with_units(metrics: Dict[str, float], declared: List[Dict[str, Any]],
               workload: str) -> Dict[str, Dict[str, Any]]:
    """Attach units; the emitted names must be exactly the declared."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise BenchError(
            f"{workload}: metrics differ from BENCHMARK.json "
            f"(missing {missing}, undeclared {extra})"
        )
    return {
        name: {"value": metrics[name], "unit": units[name]}
        for name in units
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` when the
    checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def append_history(path: Path, rows: List[Dict[str, Any]]) -> None:
    with path.open("a", encoding="utf-8") as ledger:
        for row in rows:
            ledger.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads and print their metrics."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the records here")
    parser.add_argument("--history", type=Path, default=HISTORY,
                        help="ledger the run rows are appended to")
    parser.add_argument("--label", default="",
                        help="tag recorded with the run (e.g. a set name)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: {ROOT} holds no src/repro or BENCHMARK.json; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    records: Dict[str, Dict[str, Any]] = {}
    try:
        for workload in workloads:
            record = run_workload(workload, args.seed, seconds, args.trace)
            if record["correct"]:  # an incorrect run reports no metrics
                record["metrics"] = with_units(record["metrics"], declared,
                                               workload)
            records[workload] = record
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    commit = git_commit()
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    rows = []
    for workload, record in records.items():
        for name, metric in record["metrics"].items():
            print(f"{workload:13s} {name:40s} {metric['value']:>16.6g} "
                  f"{metric['unit']}")
        for problem in record["problems"]:
            print(f"{workload:13s} INCORRECT: {problem}")
        rows.append({
            "time": stamp, "commit": commit, "host": host(),
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "label": args.label, "workload": workload,
            "correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: m["value"] for n, m in record["metrics"].items()},
        })
    append_history(args.history, rows)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "commit": commit, "host": host(), "seed": args.seed,
            "seconds": seconds, "trace": args.trace, "label": args.label,
            "workloads": records,
        }, indent=1, sort_keys=True) + "\n")

    correct = all(r["correct"] for r in records.values())
    if len(records) == 1:
        (record,) = records.values()
        metrics = record["metrics"]
    else:
        metrics = {f"{w}/{n}": m for w, r in records.items()
                   for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
