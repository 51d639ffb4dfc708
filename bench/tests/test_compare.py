"""Verdicts of bench/compare.py."""

import json

import compare
from compare import verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_unchanged_within_bound():
    head = [v * 1.02 for v in BASE]  # 2% slower, bound 10%
    assert verdict(BASE, head, 0.10, lower_is_better=True) == "unchanged"


def test_worse_beyond_bound():
    head = [v * 1.2 for v in BASE]
    assert verdict(BASE, head, 0.10, lower_is_better=True) == "worse"
    assert verdict(BASE, head, 0.10, lower_is_better=False) == "better"


def test_better_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    head = [v * 0.9 for v in BASE]
    assert verdict(BASE, head, 0.10, lower_is_better=True) == "better"
    # Five pairs won out of five is too few to claim a gain.
    assert verdict(BASE[:5], head[:5], 0.10, lower_is_better=True) == "unchanged"


def test_ties_win_for_neither_side():
    head = list(BASE)
    assert verdict(BASE, head, 0.10, lower_is_better=True) == "unchanged"
    # Eight wins and two ties: 8/10 pairs won is short of nine tenths.
    head = [v - 5.0 for v in BASE[:8]] + BASE[8:]
    assert verdict(BASE, head, 0.10, lower_is_better=True) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(BASE, noisy, 0.10, lower_is_better=True) == "unresolved"
    assert verdict(noisy, BASE, 0.10, lower_is_better=True) == "unresolved"


def test_wide_spread_but_every_head_run_better_is_better():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    head = [v / 10.0 for v in noisy]
    assert verdict(noisy, head, 0.10, lower_is_better=True) == "better"


def _record(path, value, seconds=18):
    path.write_text(json.dumps({
        "trace": 0,
        "seconds": seconds,
        "workloads": {"grid-pool": {"metrics": {
            "wall_s": {"value": value, "unit": "s"}}}},
    }))


def test_main_exits_one_on_a_regression(tmp_path, capsys):
    base, head = [], []
    for index, value in enumerate(BASE):
        _record(tmp_path / f"b{index}.json", value)
        _record(tmp_path / f"h{index}.json", value * 1.5)
        base.append(str(tmp_path / f"b{index}.json"))
        head.append(str(tmp_path / f"h{index}.json"))
    assert compare.main(["--base", *base, "--head", *head]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(["--base", *base, "--head", *base]) == 0


def test_runs_of_different_lengths_are_not_compared(tmp_path, capsys):
    _record(tmp_path / "b.json", 1.0, seconds=18)
    _record(tmp_path / "h.json", 1.0, seconds=5)
    assert compare.main(["--base", str(tmp_path / "b.json"),
                         "--head", str(tmp_path / "h.json")]) == 2
    assert "different lengths" in capsys.readouterr().err


def test_history_rows_filter_by_label(tmp_path):
    ledger = tmp_path / "history.jsonl"
    rows = [
        {"trace": 0, "label": "a", "workload": "w", "metrics": {"wall_s": 1.0}},
        {"trace": 0, "label": "b", "workload": "w", "metrics": {"wall_s": 2.0}},
        {"trace": 1, "label": "a", "workload": "w", "metrics": {"x": 3.0}},
    ]
    ledger.write_text("".join(json.dumps({**r, "seconds": 18}) + "\n"
                              for r in rows))
    assert compare.load_runs([f"{ledger}#a"]) == (
        {("w", "wall_s"): [1.0]}, {18.0})
    assert len(compare.load_runs([str(ledger)])[0][("w", "wall_s")]) == 2
