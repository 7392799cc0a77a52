"""Coalescing write buffer between the write-through L1D and the L2.

The paper's baseline (following POWER4/Itanium and Skadron & Clark [6])
uses a fully-associative 16-entry write buffer that merges multiple
stores to the same block into a single L2 write.  Entries drain to the
L2 in FIFO order when the buffer overflows (and on explicit drain).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.telemetry.metrics import StatsSourceMixin


@dataclass
class WriteBufferStats(StatsSourceMixin):
    labels = {"component": "write-buffer"}

    inserts: int = 0
    coalesced: int = 0
    drains: int = 0

    @property
    def stores_seen(self) -> int:
        return self.inserts + self.coalesced

    def as_dict(self) -> Dict[str, int]:
        d = StatsSourceMixin.as_dict(self)
        d["stores_seen"] = self.stores_seen
        return d


class WriteBuffer:
    """Fully-associative FIFO write buffer with store coalescing.

    Addresses are tracked at ``block_bytes`` granularity (the L2 line
    size, so one drain is one L2 write access).
    """

    labels = {"component": "write-buffer"}

    def __init__(self, entries: int = 16, block_bytes: int = 64) -> None:
        if entries <= 0:
            raise ValueError("write buffer needs at least one entry")
        if block_bytes & (block_bytes - 1):
            raise ValueError("block_bytes must be a power of two")
        self.entries = entries
        self.block_bytes = block_bytes
        self._offset_bits = block_bytes.bit_length() - 1
        #: Insertion-ordered map block_addr -> True (OrderedDict as FIFO set).
        self._pending: "OrderedDict[int, bool]" = OrderedDict()
        self.stats = WriteBufferStats()

    def __len__(self) -> int:
        return len(self._pending)

    def as_dict(self) -> Dict[str, int]:
        d = self.stats.as_dict()
        d["occupancy"] = len(self._pending)
        return d

    def reset(self, cycle: int = 0) -> None:
        """Zero the counters; buffered stores stay buffered."""
        self.stats.reset(cycle)

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.entries

    def contains(self, addr: int) -> bool:
        """True when a store to ``addr``'s block is still buffered."""
        return (addr >> self._offset_bits) << self._offset_bits in self._pending

    def push(self, addr: int) -> Optional[int]:
        """Buffer a store to ``addr``.

        Returns the block address drained to the L2 when the buffer had
        to make room, else None (the store coalesced or fit).
        """
        block = (addr >> self._offset_bits) << self._offset_bits
        pending = self._pending
        if block in pending:
            pending.move_to_end(block)
            self.stats.coalesced += 1
            return None
        drained: Optional[int] = None
        if len(pending) >= self.entries:
            drained, _ = pending.popitem(last=False)
            self.stats.drains += 1
        pending[block] = True
        self.stats.inserts += 1
        return drained

    def drain_one(self) -> Optional[int]:
        """Drain the oldest buffered block, if any."""
        if not self._pending:
            return None
        block, _ = self._pending.popitem(last=False)
        self.stats.drains += 1
        return block

    def drain_all(self) -> List[int]:
        """Drain every buffered block in FIFO order."""
        out = list(self._pending.keys())
        self.stats.drains += len(out)
        self._pending.clear()
        return out
