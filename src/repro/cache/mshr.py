"""Miss-status holding registers (MSHRs): in-flight miss tracking.

Non-blocking caches (SimpleScalar's default, and any modern L1) track
outstanding misses in MSHRs so that a second access to a block whose
fill is still in flight *merges* with the pending miss instead of
either re-requesting the line or — the naive trace-driven error —
hitting instantly on a line that functionally appears filled.

This model keeps the functional fill immediate (trace-driven caches
install lines at access time) and repairs the *timing*: an access to a
block with a pending fill observes the fill's completion time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.telemetry.metrics import StatsSourceMixin


@dataclass
class MshrStats(StatsSourceMixin):
    labels = {"component": "mshr"}

    allocations: int = 0
    #: Accesses that merged with an in-flight fill.
    merges: int = 0
    #: Allocations that displaced a still-pending entry (file full).
    overflows: int = 0


class MshrFile:
    """Bounded table of block address -> fill-completion cycle.

    Doubles as a :class:`~repro.telemetry.metrics.StatsSource`
    (delegating to its :class:`MshrStats`) so a registry reset covers
    it without replacing the stats object.
    """

    labels = {"component": "mshr"}

    def __init__(self, entries: int = 8) -> None:
        if entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.entries = entries
        self._pending: Dict[int, int] = {}
        #: Lower bound on the soonest pending completion: nothing can
        #: have completed before it, so pruning waits for it.
        self._earliest: float = math.inf
        self.stats = MshrStats()

    def as_dict(self) -> Dict[str, int]:
        d = self.stats.as_dict()
        d["occupancy"] = len(self._pending)
        return d

    def reset(self, cycle: int = 0) -> None:
        """Zero the counters; in-flight fills stay in flight."""
        self.stats.reset(cycle)

    def __len__(self) -> int:
        return len(self._pending)

    def _prune(self, cycle: int) -> None:
        """Drop entries whose fills have completed."""
        if cycle < self._earliest:
            return
        pending = self._pending
        done = [b for b, ready in pending.items() if ready <= cycle]
        for b in done:
            del pending[b]
        self._earliest = min(pending.values(), default=math.inf)

    def pending_ready(self, block: int, cycle: int) -> Optional[int]:
        """Completion cycle of an in-flight fill of ``block``, if any.

        Returns None when no fill is pending (or it already completed).
        A hit counts as a merge in the statistics.
        """
        ready = self._pending.get(block)
        if ready is None or ready <= cycle:
            return None
        self.stats.merges += 1
        return ready

    def allocate(self, block: int, ready: int, cycle: int) -> None:
        """Record a new in-flight fill completing at ``ready``.

        When the file is full even after pruning completed fills, the
        soonest-completing pending entry is displaced (and counted) —
        a slight optimism that avoids deadlocking the one-pass model.
        """
        self._prune(cycle)
        if len(self._pending) >= self.entries and block not in self._pending:
            victim = min(self._pending, key=self._pending.__getitem__)
            del self._pending[victim]
            self.stats.overflows += 1
        self._pending[block] = ready
        if ready < self._earliest:
            self._earliest = ready
        self.stats.allocations += 1
