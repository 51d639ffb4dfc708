"""Per-bank DRAM state: the open-row (row-buffer) state machine."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.config import DramTiming


class RowBufferResult(enum.Enum):
    """Outcome class of one bank access (standard open-page policy)."""

    HIT = "hit"          # row already open: CAS only
    MISS = "miss"        # bank idle/closed: ACT + CAS
    CONFLICT = "conflict"  # different row open: PRE + ACT + CAS


@dataclass
class Bank:
    """One DRAM bank under an open-page policy.

    The bank remembers which row is open and the time at which it can
    accept the next command (``ready_ns``).  ``access`` classifies the
    access, charges the appropriate timing, and leaves the new row open.
    """

    timing: DramTiming
    clock_hz: float
    open_row: int | None = None
    ready_ns: float = 0.0

    def __post_init__(self) -> None:
        # Hot-path constants: the three access classes and the tRAS
        # hold, converted to ns once (same expression as
        # ``_cycles_to_ns``, so the precomputation changes no bit).
        self._hit_ns = self._cycles_to_ns(self.timing.row_hit_cycles)
        self._miss_ns = self._cycles_to_ns(self.timing.row_miss_cycles)
        self._conflict_ns = self._cycles_to_ns(
            self.timing.row_conflict_cycles
        )
        self._tras_ns = self._cycles_to_ns(self.timing.tRAS)

    def _cycles_to_ns(self, cycles: int) -> float:
        return cycles / self.clock_hz * 1e9

    def access(self, row: int, now_ns: float) -> tuple[float, RowBufferResult]:
        """Issue an access to ``row`` at ``now_ns``.

        Returns ``(data_ready_ns, result)``.  The command waits for the
        bank to become ready, then pays CAS / ACT+CAS / PRE+ACT+CAS.
        """
        start_ns = now_ns if now_ns > self.ready_ns else self.ready_ns
        if self.open_row is None:
            result = RowBufferResult.MISS
            latency_ns = self._miss_ns
        elif self.open_row == row:
            result = RowBufferResult.HIT
            latency_ns = self._hit_ns
        else:
            result = RowBufferResult.CONFLICT
            latency_ns = self._conflict_ns
        data_ready_ns = start_ns + latency_ns
        self.open_row = row
        # The bank can accept the next column command once the data is out;
        # tRAS constrains back-to-back row cycles, approximated by holding
        # the bank for tRAS on non-hit accesses.
        if result is RowBufferResult.HIT:
            self.ready_ns = data_ready_ns
        else:
            self.ready_ns = start_ns + self._tras_ns
        return data_ready_ns, result

    def precharge(self) -> None:
        """Close the open row (used when a refresh or scrub intervenes)."""
        self.open_row = None
