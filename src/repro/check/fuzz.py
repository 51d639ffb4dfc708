"""Bounded, seeded config fuzzing for the conformance oracles.

Samples valid ``(Scale, design, workload)`` configurations from the
documented parameter ranges and feeds each through the *cheap* half of
the oracle suite — forced-kernel parity, seed determinism, telemetry
transparency, all read off one captured chunked run — so
odd-but-legal parameter corners (zero warmup, one core, tiny stacked
capacity, skewed ratios) get differential coverage the fixed golden
grid cannot provide.

The generator is a pure function of its seed: the same ``--seed``
reproduces the same cases, so a CI failure is replayable locally with
one flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.check.goldens import scale_identity
from repro.check.oracle import (
    InvariantResult,
    check_repeatability,
    kernel_parity,
    simulate_run,
    verdict,
)
from repro.experiments.designs import REGISTRY
from repro.experiments.runner import Scale
from repro.workloads import benchmark_names

#: Valid parameter ranges the fuzzer draws from.  Deliberately
#: conservative: every combination must be a *legal* configuration —
#: the fuzzer hunts for divergence between execution paths, not for
#: input validation bugs.
FAST_MB_CHOICES = (0.5, 1.0, 2.0)
RATIO_CHOICES = (3, 5, 7)
COPIES_CHOICES = (1, 2, 4)
ACCESSES_RANGE = (40, 240)


@dataclass(frozen=True)
class FuzzCase:
    """One sampled configuration."""

    case: int
    design: str
    workload: str
    scale: Scale

    def describe(self) -> Dict[str, Any]:
        return {
            "case": self.case,
            "design": self.design,
            "workload": self.workload,
            **scale_identity(self.scale),
        }


def generate_cases(seed: int, count: int) -> List[FuzzCase]:
    """``count`` deterministic samples from the valid ranges."""
    # A string seed hashes via SHA-512 (process-independent); a tuple
    # would fall back to PYTHONHASHSEED-randomised hash().
    rng = random.Random(f"repro.check.fuzz:{seed}")
    designs = REGISTRY.labels()
    workloads = benchmark_names()
    cases: List[FuzzCase] = []
    for index in range(count):
        accesses = rng.randrange(*ACCESSES_RANGE)
        workload = rng.choice(workloads)
        cases.append(
            FuzzCase(
                case=index,
                design=rng.choice(designs),
                workload=workload,
                scale=Scale(
                    fast_mb=rng.choice(FAST_MB_CHOICES),
                    ratio=rng.choice(RATIO_CHOICES),
                    accesses_per_core=accesses,
                    warmup_per_core=rng.randrange(0, accesses),
                    num_copies=rng.choice(COPIES_CHOICES),
                    benchmarks=(workload,),
                    seed=rng.randrange(0, 1 << 16),
                ),
            )
        )
    return cases


@dataclass(frozen=True)
class FuzzOutcome:
    """One fuzz case's oracle verdicts."""

    case: FuzzCase
    invariants: List[InvariantResult]

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.invariants)

    def to_dict(self) -> Dict[str, Any]:
        return {
            **self.case.describe(),
            "passed": self.passed,
            "invariants": [i.to_dict() for i in self.invariants],
        }


def run_fuzz(seed: int, count: int) -> List[FuzzOutcome]:
    """Run the cheap oracle set over ``count`` sampled configs, each
    reading one captured chunked run of its case."""
    outcomes: List[FuzzOutcome] = []
    for case in generate_cases(seed, count):
        cell = (case.scale, case.design, case.workload)
        chunked = simulate_run(*cell)
        outcomes.append(
            FuzzOutcome(
                case=case,
                invariants=[
                    verdict(
                        "kernel-parity",
                        kernel_parity(*cell, chunked),
                        "chunked kernel diverges from scalar",
                    ),
                    *check_repeatability(*cell, chunked),
                ],
            )
        )
    return outcomes


__all__ = [
    "ACCESSES_RANGE",
    "COPIES_CHOICES",
    "FAST_MB_CHOICES",
    "FuzzCase",
    "FuzzOutcome",
    "RATIO_CHOICES",
    "generate_cases",
    "run_fuzz",
]
