"""Workload models.

The paper evaluates 14 multiprogrammed workloads — 12 rate-mode copies
of one benchmark each — drawn from SPEC CPU2006, NAS, Mantevo and
STREAM, characterised in Table II by LLC-MPKI and memory footprint.
This package synthesises statistically equivalent memory behaviour:

* :mod:`repro.workloads.suites` — the Table II catalogue plus each
  benchmark's locality personality (zipf skew, spatial run length,
  write fraction, phase churn);
* :mod:`repro.workloads.synthetic` — seeded generators for zipf-ranked
  segment popularity with phase re-ranking and sequential intra-segment
  runs;
* :mod:`repro.workloads.placement` — footprint placement over the OS
  physical space (contiguous or scattered, the latter modelling a
  long-running fragmented system);
* :mod:`repro.workloads.multiprog` — the 12-copy rate-mode workload
  builder used by every experiment.
"""

from repro.workloads.suites import (
    BenchmarkSpec,
    TABLE2_BENCHMARKS,
    benchmark,
    benchmark_names,
)
from repro.workloads.synthetic import SyntheticAccessGenerator, zipf_weights
from repro.workloads.placement import (
    contiguous_placement,
    scattered_placement,
)
from repro.workloads.compiled import CompiledTrace, CoreTrace, compile_trace
from repro.workloads.multiprog import MultiprogramWorkload, build_workload

__all__ = [
    "BenchmarkSpec",
    "TABLE2_BENCHMARKS",
    "benchmark",
    "benchmark_names",
    "SyntheticAccessGenerator",
    "zipf_weights",
    "contiguous_placement",
    "scattered_placement",
    "CompiledTrace",
    "CoreTrace",
    "compile_trace",
    "MultiprogramWorkload",
    "build_workload",
]
