"""Record the per-cell result digests the correctness gates compare to.

    python3 bench/record_expected.py

Writes ``bench/expected/fig18-serial.json`` and
``bench/expected/grid-pool.json``: for seeds 0 and 1, every cell's
``result_digest`` as one pass of the workload computes it.  Re-record
only for an intentional change of simulation semantics, the same
occasion on which ``check --bless`` re-records the goldens.
"""

from __future__ import annotations

import json
import sys

from workloads import EXPECTED, Fig18Serial, GridPool

SEEDS = (0, 1)


def main() -> int:
    EXPECTED.mkdir(parents=True, exist_ok=True)
    for workload, digests_of in (
        (Fig18Serial, lambda done: done.outputs["digests"]),
        (GridPool, lambda done: done.outputs["cold"]),
    ):
        recorded = {
            str(seed): dict(sorted(digests_of(workload(seed).run_pass()).items()))
            for seed in SEEDS
        }
        path = EXPECTED / f"{workload.name}.json"
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
