"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 bench/compare.py --base A.json [A2.json ...] --head B.json ...

Each file is either a record written by ``bench/run.py --out`` or the
history ledger (``.jsonl``), optionally as ``history.jsonl#LABEL`` to
keep only rows run with ``--label LABEL``.  Only untraced runs count,
and every run on both sides must have measured for the same
``seconds``.  Runs pair up in the order given, so list them in the
order they were alternated.

Each row shows both sides' median and quartiles and a verdict judged by
the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — either side's spread (interquartile distance over
  median) is wider than the bound, unless every head run beats every
  base run;
* ``worse`` — the head median is worse than the base median by more
  than the bound;
* ``better`` — over at least ten pairs, the head wins at least 9 in 10
  (ties win for neither) and the medians differ by more than the base's
  interquartile distance;
* ``unchanged`` — otherwise.

Exit status 1 when any row is ``worse``, 2 when the two sides' runs
measured for different lengths.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from measure import quartiles, relative_spread

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Share of pairs the head must win to claim a gain, and the fewest
#: pairs that can show one (winning 5 of 5 happens by chance 1 in 32).
WIN_SHARE = 0.9
MIN_PAIRS = 10

Runs = Dict[Tuple[str, str], List[float]]


def load_runs(paths: Iterable[str]) -> Tuple[Runs, Set[float]]:
    """Values per ``(workload, metric)``, in file and row order, and the
    run lengths (``seconds``) they were measured with."""
    runs: Runs = {}
    lengths: Set[float] = set()

    def add(run: Dict[str, object], workload: str,
            metrics: Dict[str, object]) -> None:
        lengths.add(float(run["seconds"]))  # type: ignore[arg-type]
        for name, value in metrics.items():
            if isinstance(value, dict):
                value = value["value"]
            runs.setdefault((workload, name), []).append(float(value))

    for spec in paths:
        path, _, label = spec.partition("#")
        text = Path(path).read_text()
        if path.endswith(".jsonl"):
            for line in text.splitlines():
                row = json.loads(line)
                if row["trace"] == 0 and (not label or row["label"] == label):
                    add(row, row["workload"], row["metrics"])
        else:
            record = json.loads(text)
            if record["trace"] == 0:
                for workload, result in record["workloads"].items():
                    add(record, workload, result["metrics"])
    return runs, lengths


def verdict(base: Sequence[float], head: Sequence[float], bound: float,
            lower_is_better: bool) -> str:
    """The rule in the module docstring, for one metric on one workload."""
    sign = -1.0 if lower_is_better else 1.0

    def gain(new: float, old: float) -> float:
        return sign * (new - old)

    if max(relative_spread(base), relative_spread(head)) > bound:
        if min(gain(h, b) for h in head for b in base) > 0:
            return "better"
        return "unresolved"
    b1, b_median, b3 = quartiles(base)
    h_median = quartiles(head)[1]
    if gain(h_median, b_median) < -bound * abs(b_median):
        return "worse"
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if gain(h, b) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain(
        h_median, b_median
    ) > (b3 - b1):
        return "better"
    return "unchanged"


def compare(base: Runs, head: Runs, spec: Dict[str, object]) -> List[Dict]:
    rows = []
    metrics = spec["end_to_end"]  # type: ignore[index]
    for workload in sorted({w for w, _ in base} & {w for w, _ in head}):
        for metric in metrics:  # type: ignore[union-attr]
            key = (workload, metric["name"])
            if key not in base or key not in head:
                continue
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "base": quartiles(base[key]),
                "head": quartiles(head[key]),
                "runs": (len(base[key]), len(head[key])),
                "verdict": verdict(base[key], head[key], metric["bound"],
                                   metric["better"] == "lower"),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark runs."
    )
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    base, base_lengths = load_runs(args.base)
    head, head_lengths = load_runs(args.head)
    lengths = base_lengths | head_lengths
    if len(lengths) > 1:
        print(f"compare: the runs measured for different lengths "
              f"{sorted(lengths)} s; compare runs of one length",
              file=sys.stderr)
        return 2
    rows = compare(base, head, spec)
    print(f"{'workload':13s} {'metric':12s} {'base q1/median/q3':>32s} "
          f"{'head q1/median/q3':>32s}  runs   verdict")
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row["base"])
        head = "/".join(f"{v:.4g}" for v in row["head"])
        print(f"{row['workload']:13s} {row['metric']:12s} {base:>32s} "
              f"{head:>32s}  {row['runs'][0]}:{row['runs'][1]:<3d} "
              f"{row['verdict']} ({row['unit']})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
