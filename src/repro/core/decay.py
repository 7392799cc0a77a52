"""Decay-based cleaning: the cache-decay [12] alternative to written bits.

The paper's written-bit heuristic is inspired by Kaxiras et al.'s cache
decay, which turns off lines untouched for a decay interval.  A natural
alternative cleaning policy, then, is *access* decay: write back a dirty
line that has not been touched (read **or** written) for a full
interval.  Compared to the paper's design:

* decay needs a per-line time record (Kaxiras use 2-bit hierarchical
  counters ≈ 2 bits/line) versus the paper's single written bit;
* decay will not clean a line that is still being *read* frequently but
  never written again — exactly the lines the paper's heuristic
  reclaims (read-hot, write-dead), so it leaves more ECC entries
  occupied;
* decay is more conservative about traffic: a line gets cleaned only
  when fully idle.

Used by the cleaning-policy ablation.
"""

from __future__ import annotations

from repro.cache.cache import AccessResult, WritebackReason
from repro.cache.line import CacheLine
from repro.core.protected_cache import ProtectedL2


class DecayCleaningL2(ProtectedL2):
    """Protected L2 whose sweep cleans fully-idle dirty lines instead.

    A visited dirty line is written back when its last access (of any
    kind) is at least one cleaning interval old; the written bit is
    ignored.
    """

    def _sweep_line(
        self,
        set_idx: int,
        way: int,
        line: CacheLine,
        cycle: int,
        result: AccessResult,
    ) -> None:
        if cycle - line.last_touch_cycle >= self.cleaning.interval_cycles:
            self._writeback_line(
                set_idx, way, cycle, result, WritebackReason.CLEANING
            )
