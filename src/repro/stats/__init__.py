"""Statistics primitives used across the simulator.

The simulator reports everything through small, composable primitives:

* :class:`CounterSet` — named monotonically increasing counters with
  hierarchical dot-separated names and ratio helpers;
* :class:`Histogram` — fixed-bucket latency/size histograms;
* :class:`Timeline` — per-epoch series used for the timeline figures
  (Figure 2c, Figure 3);
* :func:`geomean` — the per-workload IPC summary the paper reports.
"""

from repro.stats.counters import CounterSet
from repro.stats.histogram import Histogram
from repro.stats.timeline import Timeline
from repro.stats.summary import geomean

__all__ = [
    "CounterSet",
    "Histogram",
    "Timeline",
    "geomean",
]
