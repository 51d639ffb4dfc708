"""Tests for the ``python -m repro.experiments`` CLI."""

import dataclasses

import pytest

from repro.experiments.__main__ import main
from repro.experiments.artefacts import ARTEFACTS
from repro.experiments.runner import DEFAULT_SCALE, SMOKE_SCALE


@pytest.fixture(autouse=True)
def _isolated_cache_dir(isolated_cache_dir):
    """Keep CLI runs without --cache-dir out of the user's home
    (delegates to the shared ``isolated_cache_dir`` fixture)."""


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "table1" in out and "overhead" in out

    def test_every_registered_experiment_has_a_runner(self):
        expected = {
            "table1", "table2", "fig2a", "fig2b", "fig2c", "fig3",
            "fig4", "fig5", "fig15", "fig16", "fig17", "fig18",
            "fig19", "fig20", "fig21", "fig22", "fig23", "overhead",
        }
        assert set(ARTEFACTS) == expected

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        assert "Stacked DRAM" in capsys.readouterr().out

    def test_overhead_runs(self, capsys):
        assert main(["overhead"]) == 0
        assert "ISA events" in capsys.readouterr().out

    def test_fig15_with_scale_flags(self, capsys):
        code = main(
            ["fig15", "--accesses", "150", "--warmup", "150", "--fast-mb", "1"]
        )
        assert code == 0
        assert "Figure 15" in capsys.readouterr().out

    def test_fig2c_series_output(self, capsys):
        code = main(
            ["fig2c", "--accesses", "200", "--warmup", "0", "--fast-mb", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit_rate" in out


SMOKE_FLAGS = [
    "--accesses", "150", "--warmup", "150", "--fast-mb", "1",
]


class TestRuntimeFlags:
    def test_jobs_flag_runs_parallel(self, capsys, tmp_path):
        code = main(
            ["fig16", *SMOKE_FLAGS, "--jobs", "2",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 16" in captured.out
        assert "[runtime]" in captured.err
        assert "jobs=2" in captured.err

    def test_warm_cache_performs_zero_simulations(self, capsys, tmp_path):
        assert main(
            ["fig16", *SMOKE_FLAGS, "--cache-dir", str(tmp_path)]
        ) == 0
        first = capsys.readouterr()
        assert "simulated=0" not in first.err
        assert main(
            ["fig16", *SMOKE_FLAGS, "--cache-dir", str(tmp_path)]
        ) == 0
        second = capsys.readouterr()
        assert "simulated=0" in second.err
        assert "hit-rate=100.0%" in second.err
        assert second.out == first.out

    def test_no_cache_flag_disables_persistence(self, capsys, tmp_path):
        for _ in range(2):
            assert main(
                ["fig16", *SMOKE_FLAGS, "--no-cache",
                 "--cache-dir", str(tmp_path)]
            ) == 0
            err = capsys.readouterr().err
            assert "disk-hits=0" in err
        assert not any(tmp_path.iterdir())

    def test_progress_flag_prints_cells(self, capsys, tmp_path):
        assert main(
            ["fig16", *SMOKE_FLAGS, "--no-cache", "--progress",
             "--cache-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "Chameleon/mcf" in err or "Chameleon-Opt/mcf" in err

    def test_arena_on_by_default_and_reported(self, capsys, tmp_path):
        assert main(
            ["fig16", *SMOKE_FLAGS, "--no-cache",
             "--cache-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "arena-bytes=" in err
        assert "arena-hits=" in err

    def test_no_arena_flag_disables_the_arena(self, capsys, tmp_path):
        assert main(
            ["fig16", *SMOKE_FLAGS, "--no-cache", "--no-arena",
             "--cache-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "arena-bytes=" not in err

    def test_arena_does_not_change_output(self, capsys, tmp_path):
        assert main(
            ["fig16", *SMOKE_FLAGS, "--no-cache",
             "--cache-dir", str(tmp_path)]
        ) == 0
        with_arena = capsys.readouterr().out
        assert main(
            ["fig16", *SMOKE_FLAGS, "--no-cache", "--no-arena",
             "--cache-dir", str(tmp_path)]
        ) == 0
        without = capsys.readouterr().out
        assert with_arena == without


class TestFaultToleranceFlags:
    def test_retries_and_timeout_flags_accepted(self, capsys, tmp_path):
        code = main(
            ["fig16", *SMOKE_FLAGS, "--no-cache",
             "--retries", "1", "--timeout", "120",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[runtime]" in err
        assert "retries=0" in err  # tolerance armed, nothing failed

    def test_env_fault_plan_drives_the_cli(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1,error=1,retries=2")
        code = main(
            ["fig16", *SMOKE_FLAGS, "--no-cache",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        # The injected transient error was absorbed by one retry and
        # the figure still rendered.
        assert "Figure 16" in captured.out
        assert "retries=1" in captured.err

    def test_resume_flag_is_a_deprecated_noop(self, capsys, tmp_path):
        flags = ["fig16", *SMOKE_FLAGS, "--cache-dir", str(tmp_path)]
        assert main([*flags, "--resume"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: --resume is deprecated") == 1
        assert "resumed=" not in err
        assert not list(tmp_path.rglob("*.jsonl"))  # no journal
        # The cache stayed on, so a re-run is served entirely from it.
        assert main([*flags, "--resume"]) == 0
        assert "simulated=0" in capsys.readouterr().err

    def test_resume_with_no_cache_is_a_usage_error(self, capsys, tmp_path):
        code = main(
            ["fig16", *SMOKE_FLAGS, "--resume", "--no-cache",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--no-cache" in captured.err
        assert "Figure 16" not in captured.out


class TestForeignFlags:
    """A flag only another subcommand reads is a usage error naming the
    flag and its owner, never silently ignored."""

    @pytest.mark.parametrize(
        "argv, flag, owner",
        [
            (["fig15", "--seed", "3"], "--seed", "the 'check' subcommand"),
            (["fig15", "--seed", "0"], "--seed", "the 'check' subcommand"),
            (["fig16", "--bless", "--port", "5", "--hold"], "--bless",
             "the 'check' subcommand"),
            (["all", "--port", "0"], "--port", "the 'serve' subcommand"),
            (["check", "--accesses", "150"], "--accesses", "experiment runs"),
            (["serve", "--trace"], "--trace", "experiment runs"),
            (["cache", "info", "--sample", "1"], "--sample",
             "the 'check' subcommand"),
        ],
    )
    def test_foreign_flag_is_a_usage_error(self, capsys, argv, flag, owner):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{flag} belongs to {owner}" in captured.err
        assert captured.out == ""


class TestCacheSubcommand:
    def test_info_empty(self, capsys, tmp_path):
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries      : 0" in out
        assert str(tmp_path) in out

    def test_info_then_clear(self, capsys, tmp_path):
        assert main(
            ["fig16", *SMOKE_FLAGS, "--cache-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        cells = 2 * len(DEFAULT_SCALE.benchmarks)  # fig16: two designs
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert f"entries      : {cells}" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert f"removed {cells}" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries      : 0" in capsys.readouterr().out

    def test_unknown_cache_action(self, capsys, tmp_path):
        assert main(["cache", "wipe", "--cache-dir", str(tmp_path)]) == 2
        assert "unknown cache action" in capsys.readouterr().err


class TestExitCodes:
    """The CLI contract: 0 success, 1 runtime failure, 2 usage error —
    a sweep that cannot complete must never exit 0."""

    def test_exhausted_fault_plan_exits_one(
        self, capsys, tmp_path, monkeypatch
    ):
        # A crash with no retries is unsurvivable: the SweepJobError
        # must surface as exit code 1, not a traceback or a false 0.
        monkeypatch.setenv("REPRO_FAULTS", "seed=1,crash=1,retries=0")
        code = main(
            ["fig16", *SMOKE_FLAGS, "--no-cache",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Figure 16" not in captured.out

    def test_all_with_failing_plan_exits_one(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1,crash=1,retries=0")
        code = main(
            ["all", *SMOKE_FLAGS, "--no-cache",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
