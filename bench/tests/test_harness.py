"""The harness emits exactly the declared metrics and counts failures."""

import json
import statistics

import pytest

import layers
import run
import workloads
from workloads import (
    GridPool,
    Outcome,
    PassResult,
    ServeMixed,
    end_to_end,
    measure,
)

SPEC = json.loads(run.SPEC.read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def tiny_grid():
    return GridPool(0, designs=("PoM", "Alloy-Cache"), benchmarks=("mcf",))


def test_spec_is_within_the_declared_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in END_TO_END
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_untraced_run_emits_every_end_to_end_metric_and_no_other():
    outcome = Outcome()
    measure(tiny_grid(), 0.0, outcome)
    assert outcome.attempted == 2 * 21 and outcome.failed == 0
    metrics = {"setup_s": 0.5, **end_to_end(outcome, GridPool.tail_pct)}
    assert set(run.with_units(metrics, SPEC["end_to_end"], "grid-pool")) == END_TO_END
    assert all(value > 0 for value in metrics.values())


def test_median_is_of_warm_operations_and_tail_of_cold_ones():
    def done(cold, warm):
        return PassResult(wall_s=1.0, cold_ms=cold, warm_ms=warm,
                          attempted=len(cold) + len(warm), failed=0,
                          measured_wall_s=1.0)

    # A 70/30 warm/cold mix: over all requests the median would be warm
    # but not the warm median, and the p95 a mid-ranked cold request.
    mixed = Outcome(passes=[done(list(range(100, 130)),
                                 [1.0] * 35 + [2.0] * 35)])
    metrics = end_to_end(mixed, 95.0)
    assert metrics["op_p50_ms"] == 1.0
    assert metrics["op_tail_ms"] == 128.0
    assert mixed.extra["tail_beyond"] == 1
    # Without a warm class both come from the cold operations.
    cold_only = end_to_end(Outcome(passes=[done([1.0, 2.0, 3.0], [])]), 50.0)
    assert cold_only["op_p50_ms"] == cold_only["op_tail_ms"] == 2.0


def test_traced_run_emits_every_per_layer_metric_and_no_other(monkeypatch):
    monkeypatch.setattr(layers, "TRACE_SEGMENT_S", 0.0)  # one pass each
    outcome = Outcome()
    metrics = layers.traced_run(tiny_grid(), outcome)
    assert not outcome.problems and outcome.failed == 0
    assert set(metrics) == PER_LAYER
    for kernel in ("batched", "batched-paged"):
        shares = [v for k, v in metrics.items()
                  if k.startswith(f"prof.{kernel}.")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
    # A two-cell pass is mostly calibration, so the few milliseconds no
    # span covers weigh far more than in a real pass (0.85-0.99 here,
    # above 0.99 on every workload).
    assert 0.5 < metrics["trace.attributed_share"] <= 1.0


def test_a_declared_name_missing_or_an_undeclared_one_is_refused():
    metrics = {name: 1.0 for name in END_TO_END}
    with pytest.raises(run.BenchError, match="missing"):
        run.with_units({k: v for k, v in metrics.items() if k != "wall_s"},
                       SPEC["end_to_end"], "w")
    with pytest.raises(run.BenchError, match="undeclared"):
        run.with_units({**metrics, "extra_ms": 1.0}, SPEC["end_to_end"], "w")


def test_a_failing_cell_makes_an_incorrect_run_not_a_crash(monkeypatch):
    import repro.runtime.cells as cells

    simulate_cell = cells.simulate_cell

    def failing(scale, design, workload, **kwargs):
        if design == "Alloy-Cache":
            raise RuntimeError("injected cell failure")
        return simulate_cell(scale, design, workload, **kwargs)

    # Pool workers are forked, so they inherit the failing cell.
    monkeypatch.setattr(cells, "simulate_cell", failing)
    grid = tiny_grid()
    record = workloads.run_child(grid, 0.0, trace=False, setup_only=False)
    assert record["correct"] is False
    assert record["failed"] == record["attempted"] == grid.ops_per_pass
    assert record["metrics"] == {}
    assert "SweepJobError" in record["problems"][0]


def test_an_incorrect_record_exits_one_and_is_kept_in_the_history(
    monkeypatch, tmp_path, capsys
):
    record = {"correct": False, "attempted": 42, "failed": 42, "metrics": {},
              "problems": ["grid-pool: injected"], "extra": {}}
    monkeypatch.setattr(run, "run_workload", lambda *args: dict(record))
    ledger = tmp_path / "history.jsonl"
    assert run.main(["--workload", "grid-pool", "--history", str(ledger)]) == 1
    (row,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert (row["correct"], row["failed"]) == (False, 42)
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last == {"correct": False, "attempted": 42, "failed": 42,
                    "metrics": {}}


class FixedStream:
    def __init__(self, requests):
        self.requests = list(requests)

    def next(self):
        return self.requests.pop(0), True


def test_unknown_design_counts_as_failed_without_stopping_the_run(tmp_path):
    from repro.serve import ServerThread

    scale = {"fast_mb": 1.0, "accesses_per_core": 50, "warmup_per_core": 50,
             "num_copies": 1}
    good = {"design": "PoM", "workload": "mcf", "seed": 1, **scale}
    bogus = {"design": "No-Such-Design", "workload": "mcf", **scale}
    with ServerThread(port=0, jobs=1, cache=None,
                      checkpoint_dir=tmp_path) as server:
        serve = ServeMixed(0, per_pass=4)
        serve.port = server.port
        serve.streams = [FixedStream([bogus, good]), FixedStream([good, good])]
        done = serve.run_pass()
        assert (done.attempted, done.failed) == (4, 1)
        problems = serve.verify([done])
    assert problems == [f"HTTP 400 for {workloads.cell_key(bogus)}"]


def test_an_unreachable_server_is_a_failed_reply_not_a_crash():
    reply = workloads.send(1, {"design": "PoM", "workload": "mcf"}, True)
    assert reply.status == 0


def test_request_streams_are_a_function_of_the_seed():
    def draw(seed):
        stream = workloads.RequestStream(seed, 0)
        return [stream.next() for _ in range(50)]

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    new = [is_new for _, is_new in draw(3)]
    assert 0.1 < statistics.mean(new) < 0.6
