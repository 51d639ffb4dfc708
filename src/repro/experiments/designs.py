"""Typed design registry: every memory system the paper evaluates.

The old API was a bare ``DESIGNS: Dict[str, DesignFactory]`` plus
ad-hoc per-figure tuples (``FIG18_DESIGNS`` ...).  This module replaces
both with :class:`DesignSpec` — label, factory, category, figure
membership — held in a :class:`DesignRegistry` queryable by figure or
category.  Figure order matters for the plots, so membership is
declared per figure as an ordered label tuple (:meth:`DesignRegistry
.define_figure`), in the exact plot order of the paper.

The legacy names still import from :mod:`repro.experiments.runner` as
thin deprecated aliases for one release.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Tuple

from repro.arch import (
    AlloyCache,
    CameoArchitecture,
    FlatMemory,
    MemoryArchitecture,
    PoMArchitecture,
    PolymorphicMemory,
    StaticHybridMemory,
)
from repro.config import SystemConfig
from repro.core import (
    ChameleonArchitecture,
    ChameleonOptArchitecture,
    ChameleonSharedPool,
)
from repro.osmodel.autonuma import AutoNumaConfig
from repro.sim import (
    AutoNumaMemory,
    FirstTouchMemory,
    KernelDecision,
    select_kernel,
)

DesignFactory = Callable[[SystemConfig], MemoryArchitecture]

#: The three design categories (Section II taxonomy): flat-DRAM
#: ``baseline`` points, ``hardware`` co-designed/managed systems, and
#: ``os``-managed NUMA policies.
CATEGORIES = ("baseline", "hardware", "os")


@dataclass(frozen=True)
class DesignSpec:
    """One evaluated memory system.

    ``figures`` is derived — it lists every figure the design appears
    in, in figure-id order, and is filled in by
    :meth:`DesignRegistry.define_figure`.
    """

    label: str
    factory: DesignFactory
    category: str
    figures: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(
                f"unknown category {self.category!r}; "
                f"expected one of {CATEGORIES}"
            )


class DesignRegistry:
    """Ordered registry of :class:`DesignSpec`, queryable by figure or
    category."""

    def __init__(self) -> None:
        self._specs: Dict[str, DesignSpec] = {}
        self._figures: Dict[str, Tuple[str, ...]] = {}

    # -- registration --------------------------------------------------

    def register(self, spec: DesignSpec) -> DesignSpec:
        if spec.label in self._specs:
            raise ValueError(f"design {spec.label!r} already registered")
        self._specs[spec.label] = spec
        return spec

    def define_figure(self, figure: str, labels: Tuple[str, ...]) -> None:
        """Declare a figure's designs, in plot order."""
        for label in labels:
            if label not in self._specs:
                raise KeyError(
                    f"figure {figure!r} references unknown design {label!r}"
                )
        self._figures[figure] = tuple(labels)
        for label in labels:
            spec = self._specs[label]
            if figure not in spec.figures:
                self._specs[label] = replace(
                    spec, figures=tuple(sorted(spec.figures + (figure,)))
                )

    # -- queries -------------------------------------------------------

    def get(self, label: str) -> DesignSpec:
        try:
            return self._specs[label]
        except KeyError:
            raise KeyError(f"unknown design {label!r}") from None

    def __getitem__(self, label: str) -> DesignSpec:
        return self.get(label)

    def __contains__(self, label: str) -> bool:
        return label in self._specs

    def __iter__(self) -> Iterator[DesignSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def labels(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def figures(self) -> Tuple[str, ...]:
        return tuple(self._figures)

    def by_category(self, category: str) -> Tuple[DesignSpec, ...]:
        """Specs of one category, in registration order."""
        if category not in CATEGORIES:
            raise KeyError(
                f"unknown category {category!r}; expected one of {CATEGORIES}"
            )
        return tuple(
            spec for spec in self._specs.values()
            if spec.category == category
        )

    def by_figure(self, figure: str) -> Tuple[DesignSpec, ...]:
        """Specs of one figure, in the paper's plot order."""
        return tuple(self._specs[l] for l in self.figure_labels(figure))

    def figure_labels(self, figure: str) -> Tuple[str, ...]:
        try:
            return self._figures[figure]
        except KeyError:
            known = ", ".join(self._figures)
            raise KeyError(
                f"unknown figure {figure!r}; known: {known}"
            ) from None

    def factories(self) -> Dict[str, DesignFactory]:
        """Label -> factory view (shape of the legacy ``DESIGNS``)."""
        return {spec.label: spec.factory for spec in self._specs.values()}


# ----------------------------------------------------------------------
# Factory helpers
# ----------------------------------------------------------------------

def _flat(fraction_of_total: float) -> DesignFactory:
    def make(config: SystemConfig) -> MemoryArchitecture:
        capacity = int(config.total_capacity_bytes * fraction_of_total)
        return FlatMemory(config, capacity_bytes=capacity)

    return make


def _knl(cache_fraction: float) -> DesignFactory:
    def make(config: SystemConfig) -> MemoryArchitecture:
        return StaticHybridMemory(config, cache_fraction=cache_fraction)

    return make


def _autonuma(threshold: float) -> DesignFactory:
    def make(config: SystemConfig) -> MemoryArchitecture:
        return AutoNumaMemory(
            config,
            autonuma=AutoNumaConfig(threshold=threshold),
            epoch_accesses=3000,
        )

    return make


def kernel_decision(label: str, config: SystemConfig) -> KernelDecision:
    """Which chunked-kernel case ``kernel="auto"`` runs for ``label``.

    Builds the design's architecture at ``config`` and asks
    :func:`repro.sim.select_kernel` whether it is pager-backed.  Used
    by the sweep runtime and the serving layer to surface the case a
    design runs without simulating anything.
    """
    architecture = REGISTRY.get(label).factory(config)
    pager_present = (
        architecture.os_visible_bytes < config.total_capacity_bytes
    )
    return select_kernel(architecture, None, pager_present)


# ----------------------------------------------------------------------
# The registry: every design the paper evaluates, by figure label
# ----------------------------------------------------------------------

REGISTRY = DesignRegistry()

for _spec in (
    DesignSpec("baseline_20GB_DDR3", _flat(20.0 / 24.0), "baseline"),
    DesignSpec("baseline_24GB_DDR3", _flat(1.0), "baseline"),
    DesignSpec("Alloy-Cache", AlloyCache, "hardware"),
    DesignSpec("PoM", PoMArchitecture, "hardware"),
    DesignSpec("Chameleon", ChameleonArchitecture, "hardware"),
    DesignSpec("Chameleon-Opt", ChameleonOptArchitecture, "hardware"),
    DesignSpec("Polymorphic", PolymorphicMemory, "hardware"),
    DesignSpec("CAMEO", CameoArchitecture, "hardware"),
    DesignSpec("Chameleon-Shared", ChameleonSharedPool, "hardware"),
    DesignSpec("KNL-hybrid-25", _knl(0.25), "hardware"),
    DesignSpec("KNL-hybrid-50", _knl(0.50), "hardware"),
    DesignSpec("numaAware", FirstTouchMemory, "os"),
    DesignSpec("autoNUMA_70percent", _autonuma(0.70), "os"),
    DesignSpec("autoNUMA_80percent", _autonuma(0.80), "os"),
    DesignSpec("autoNUMA_90percent", _autonuma(0.90), "os"),
):
    REGISTRY.register(_spec)

# Per-figure line-ups, in plot order.
_BASELINES = ("baseline_20GB_DDR3", "baseline_24GB_DDR3")
_CHAMELEONS = ("Chameleon", "Chameleon-Opt")
_AUTONUMA = ("autoNUMA_70percent", "autoNUMA_80percent", "autoNUMA_90percent")

REGISTRY.define_figure("fig2a", ("numaAware",))
REGISTRY.define_figure("fig2b", _AUTONUMA)
REGISTRY.define_figure("fig15", ("Alloy-Cache", "PoM") + _CHAMELEONS)
REGISTRY.define_figure("fig16", _CHAMELEONS)
REGISTRY.define_figure("fig17", ("PoM",) + _CHAMELEONS)
REGISTRY.define_figure(
    "fig18", _BASELINES + ("Alloy-Cache", "PoM") + _CHAMELEONS
)
REGISTRY.define_figure("fig19", ("PoM",) + _CHAMELEONS)
REGISTRY.define_figure(
    "fig20", _BASELINES + ("numaAware",) + _AUTONUMA + _CHAMELEONS
)
REGISTRY.define_figure("fig21", _CHAMELEONS)
REGISTRY.define_figure("fig22", _BASELINES + ("Polymorphic",) + _CHAMELEONS)
REGISTRY.define_figure("fig23", _BASELINES + ("PoM",) + _CHAMELEONS)

__all__ = [
    "CATEGORIES",
    "DesignFactory",
    "DesignRegistry",
    "DesignSpec",
    "REGISTRY",
    "kernel_decision",
]
