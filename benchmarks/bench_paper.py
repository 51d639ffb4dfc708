"""Every table and figure of the paper, regenerated at ``DEFAULT_SCALE``.

One benchmark per entry of :data:`repro.experiments.artefacts.ARTEFACTS`
(``python -m repro.experiments list`` prints their ids): it runs the
artefact once, prints what the CLI prints next to the paper's numbers,
and asserts the entry's shape checks.  ``-k fig18`` selects one.
"""

import pytest

from repro.experiments import DEFAULT_SCALE
from repro.experiments.artefacts import ARTEFACTS


@pytest.mark.parametrize("artefact", ARTEFACTS.values(), ids=list(ARTEFACTS))
def test_artefact(artefact, run_once):
    result = run_once(artefact.run, DEFAULT_SCALE)
    print()
    print(artefact.render(result))
    print(f"[paper] {artefact.paper}")
    assert artefact.failures(artefact.summarise(result)) == []
