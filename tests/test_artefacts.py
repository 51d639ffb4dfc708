"""The artefact registry: every row's checks read real summary keys,
the cheap rows pass at their reference scale, and a check fails when
the paper's ordering is broken."""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.artefacts import ARTEFACTS
from repro.experiments.runner import DEFAULT_SCALE, SMOKE_SCALE

#: Rows that run in a second or less at ``DEFAULT_SCALE``.
CHEAP = ("table1", "table2", "fig2c", "fig3", "fig4", "fig5", "overhead")

#: Fig 15 averages at ``DEFAULT_SCALE``, seed 0 (EXPERIMENTS.md).
FIG15 = {
    "Alloy-Cache": 68.292,
    "PoM": 81.569,
    "Chameleon": 81.756,
    "Chameleon-Opt": 82.368,
}


@pytest.mark.parametrize("name", CHEAP)
def test_cheap_row_passes_at_reference_scale(name):
    artefact = ARTEFACTS[name]
    result = artefact.run(DEFAULT_SCALE)
    assert artefact.failures(artefact.summarise(result)) == []


@pytest.mark.parametrize(
    "name", [name for name, a in ARTEFACTS.items() if a.scaled]
)
def test_scaled_row_checks_name_smoke_summary_keys(name):
    artefact = ARTEFACTS[name]
    summary = artefact.summarise(artefact.run(SMOKE_SCALE))
    for check in artefact.checks:
        assert set(check.keys) <= set(summary), str(check)


def test_fig15_rejects_pom_and_chameleon_swapped():
    fig15 = ARTEFACTS["fig15"]
    assert fig15.failures(FIG15) == []
    swapped = dict(FIG15, PoM=FIG15["Chameleon"], Chameleon=FIG15["PoM"])
    failures = fig15.failures(swapped)
    assert len(failures) == 1
    assert "PoM < Chameleon" in failures[0]


def test_fig23_paper_numbers_fail_only_the_deviation_rows():
    """The paper's own Fig 23 margins keep its shape rows but break the
    known-deviation rows, so fixing deviation 5 is a visible change."""
    paper = {"1:3:opt_vs_pom": 7.6, "1:7:opt_vs_pom": 12.4}
    failures = ARTEFACTS["fig23"].failures(paper)
    assert failures
    assert all("[deviation 5]" in failure for failure in failures)


def test_list_prints_the_registry_in_order(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out.split() == list(ARTEFACTS)
