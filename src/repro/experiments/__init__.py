"""Experiment runners — one per table and figure of the paper.

Every runner returns structured rows *and* can print the same
table/series the paper reports, via :mod:`repro.experiments.reporting`.
:mod:`repro.experiments.artefacts` registers each runner with its CLI
id, renderer, paper numbers and shape checks;
``python -m repro.experiments list`` prints the ids.
"""

from repro.experiments.designs import REGISTRY, DesignRegistry, DesignSpec
from repro.experiments.runner import Scale, SMOKE_SCALE, DEFAULT_SCALE
from repro.experiments.reporting import format_table, format_series

__all__ = [
    "DesignRegistry",
    "DesignSpec",
    "REGISTRY",
    "Scale",
    "SMOKE_SCALE",
    "DEFAULT_SCALE",
    "format_table",
    "format_series",
]
