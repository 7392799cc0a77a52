"""The full memory hierarchy of the paper's baseline processor.

Write-through L1 instruction and data caches (so they need only parity)
with MSHR-tracked in-flight misses, a 16-entry coalescing write buffer,
a unified write-back L2 (the cache the paper protects), an optional L3,
and main memory behind a contended 8-byte bus.

The unified levels are pluggable: pass a plain
:class:`SetAssociativeCache` for the conventional uniform-ECC baseline,
or a :class:`repro.core.protected_cache.ProtectedL2` (at either level)
for the paper's scheme.

Port arbitration note: the paper gives L1 requests priority over the
cleaning logic at the L2 ports.  The trace-driven model realises the
same effect structurally — cleaning sweeps (`advance`) run between
demand accesses, never delaying one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cache.cache import (
    CacheConfig,
    SetAssociativeCache,
    WritePolicy,
)
from repro.cache.mainmem import MainMemory, MemoryConfig
from repro.cache.mshr import MshrFile
from repro.cache.write_buffer import WriteBuffer
from repro.telemetry.metrics import MetricsRegistry, StatsSourceMixin
from repro.telemetry.tracing import EventTracer


def default_l1i_config() -> CacheConfig:
    """Table 1: 32KB 4-way, 32B line, 1-cycle, read-only stream."""
    return CacheConfig(
        name="l1i",
        size_bytes=32 * 1024,
        ways=4,
        line_bytes=32,
        write_policy=WritePolicy.WRITE_THROUGH,
        write_allocate=False,
        hit_latency=1,
    )


def default_l1d_config() -> CacheConfig:
    """Table 1: 32KB 4-way, 32B line, 1-cycle, write-through no-allocate."""
    return CacheConfig(
        name="l1d",
        size_bytes=32 * 1024,
        ways=4,
        line_bytes=32,
        write_policy=WritePolicy.WRITE_THROUGH,
        write_allocate=False,
        hit_latency=1,
    )


def default_l2_config() -> CacheConfig:
    """Table 1: unified 1MB, 4-way, 64B line, 10-cycle, write-back."""
    return CacheConfig(
        name="l2",
        size_bytes=1024 * 1024,
        ways=4,
        line_bytes=64,
        write_policy=WritePolicy.WRITE_BACK,
        write_allocate=True,
        hit_latency=10,
    )


def default_l3_config() -> CacheConfig:
    """A typical L3 for three-level experiments: 4MB, 8-way, 64B, 25-cycle."""
    return CacheConfig(
        name="l3",
        size_bytes=4 * 1024 * 1024,
        ways=8,
        line_bytes=64,
        write_policy=WritePolicy.WRITE_BACK,
        write_allocate=True,
        hit_latency=25,
    )


@dataclass
class HierarchyConfig:
    """Configuration bundle for the whole memory system.

    ``l3`` is optional: the paper's Table 1 machine is two-level, but
    the scheme applies to L3s equally (both POWER4 and Itanium protect
    L2 *and* L3 with ECC), so a third level can be enabled for those
    experiments.
    """

    l1i: CacheConfig = field(default_factory=default_l1i_config)
    l1d: CacheConfig = field(default_factory=default_l1d_config)
    l2: CacheConfig = field(default_factory=default_l2_config)
    l3: Optional[CacheConfig] = None
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    write_buffer_entries: int = 16
    #: MSHRs per L1 (in-flight miss tracking; SimpleScalar-style).
    mshr_entries: int = 8


@dataclass
class HierarchyStats(StatsSourceMixin):
    labels = {"component": "hierarchy"}

    loads: int = 0
    stores: int = 0
    ifetches: int = 0

    @property
    def loads_stores(self) -> int:
        return self.loads + self.stores

    def flatten(self) -> Dict[str, int]:
        """Raw counters plus derived totals — the registry feed."""
        d = StatsSourceMixin.as_dict(self)
        d["loads_stores"] = self.loads_stores
        d["refs"] = self.loads_stores + self.ifetches
        return d

    def as_dict(self) -> Dict[str, int]:
        return self.flatten()


class MemoryHierarchy:
    """Trace-driven memory system: returns a latency for every reference."""

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        l2: Optional[SetAssociativeCache] = None,
        l3: Optional[SetAssociativeCache] = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        for level, l1 in (("l1i", self.config.l1i), ("l1d", self.config.l1d)):
            # The L1 entry points read only the hit flag
            # (:meth:`SetAssociativeCache.access_hit`): a write-back L1
            # would silently drop its dirty traffic.
            if l1.write_policy is not WritePolicy.WRITE_THROUGH:
                raise ValueError(
                    f"{level} ({l1.name!r}) must be write-through, "
                    f"got {l1.write_policy.value}"
                )
        self.l1i = SetAssociativeCache(self.config.l1i)
        self.l1d = SetAssociativeCache(self.config.l1d)
        self.l2 = l2 if l2 is not None else SetAssociativeCache(self.config.l2)
        if l3 is not None:
            self.l3: Optional[SetAssociativeCache] = l3
        elif self.config.l3 is not None:
            self.l3 = SetAssociativeCache(self.config.l3)
        else:
            self.l3 = None
        #: Unified levels below the L1s, nearest first.
        self.levels = [self.l2] + ([self.l3] if self.l3 is not None else [])
        self.write_buffer = WriteBuffer(
            entries=self.config.write_buffer_entries,
            block_bytes=self.l2.config.line_bytes,
        )
        #: In-flight miss tracking, at L2-block granularity.
        self.l1d_mshr = MshrFile(self.config.mshr_entries)
        self.l1i_mshr = MshrFile(self.config.mshr_entries)
        self._block_shift = self.l2.config.line_bytes.bit_length() - 1
        self.memory = MainMemory(self.config.memory)
        self.stats = HierarchyStats()
        #: Monotonic clock: out-of-order cores may present slightly
        #: out-of-order timestamps; the hierarchy's bookkeeping (dirty
        #: integration, cleaning sweeps, bus occupancy) needs time to
        #: only move forward.
        self._clock = 0
        #: Clock value at which :meth:`_advance_l2` next has work.
        self._next_background = min(
            cache.next_advance_cycle() for cache in self.levels
        )
        #: Every stats holder in the system, one snapshot/reset boundary.
        self.registry = MetricsRegistry()
        self._register_telemetry()
        self.tracer: Optional[EventTracer] = None

    def _register_telemetry(self) -> None:
        """Register every component's stats into the hierarchy registry."""
        reg = self.registry
        reg.register_source("hierarchy", self.stats)
        reg.register_source("l1i", self.l1i)
        reg.register_source("l1d", self.l1d)
        for cache in self.levels:
            name = cache.config.name
            reg.register_source(name, cache)
            ecc_array = getattr(cache, "ecc_array", None)
            if ecc_array is not None:
                reg.register_source(f"{name}.ecc_array", ecc_array)
            cleaning = getattr(cache, "cleaning", None)
            if cleaning is not None:
                reg.register_source(f"{name}.cleaning", cleaning)
        reg.register_source("write_buffer", self.write_buffer)
        reg.register_source("l1d_mshr", self.l1d_mshr)
        reg.register_source("l1i_mshr", self.l1i_mshr)
        reg.register_source("memory", self.memory)

    def attach_tracer(self, tracer: Optional[EventTracer]) -> None:
        """Attach (or with ``None`` detach) a tracer to every cache level."""
        self.tracer = tracer
        for cache in (self.l1i, self.l1d, *self.levels):
            cache.attach_tracer(tracer)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Point-in-time counters of every component (plain data)."""
        return self.registry.snapshot()

    def reset_measurement(self, cycle: int) -> None:
        """Zero every counter at ``cycle``, keeping all cache contents."""
        self.registry.reset(cycle)

    @property
    def clock(self) -> int:
        """Latest cycle the hierarchy has seen."""
        return self._clock

    # -- reference entry points ---------------------------------------------
    #
    # Hot loop: every reference clamps the cycle to the monotonic clock
    # inline, computes its block once, asks the write-through L1 only
    # for its hit flag (``access_hit``), and runs background work only
    # when a level has some due (``_next_background``).

    def ifetch(self, addr: int, cycle: int) -> int:
        """Instruction fetch; returns latency in cycles."""
        if cycle > self._clock:
            self._clock = cycle
        else:
            cycle = self._clock
        self.stats.ifetches += 1
        if cycle >= self._next_background:
            self._advance_l2(cycle)
        hit = self.l1i.access_hit(addr, False, cycle)
        block = addr >> self._block_shift
        pending = self.l1i_mshr.pending_ready(block, cycle)
        if pending is not None:
            # The block's fill is still in flight: wait for it.
            return self.l1i.config.hit_latency + (pending - cycle)
        if hit:
            return self.l1i.config.hit_latency
        below = self._l2_read(addr, cycle)
        latency = self.l1i.config.hit_latency + below
        self.l1i_mshr.allocate(block, cycle + latency, cycle)
        return latency

    def load(self, addr: int, cycle: int) -> int:
        """Data load; returns latency in cycles."""
        if cycle > self._clock:
            self._clock = cycle
        else:
            cycle = self._clock
        self.stats.loads += 1
        if cycle >= self._next_background:
            self._advance_l2(cycle)
        hit = self.l1d.access_hit(addr, False, cycle)
        block = addr >> self._block_shift
        pending = self.l1d_mshr.pending_ready(block, cycle)
        if pending is not None:
            # Merge with the in-flight miss (MSHR semantics): the line
            # looks resident functionally but its data arrives later.
            return self.l1d.config.hit_latency + (pending - cycle)
        if hit:
            return self.l1d.config.hit_latency
        if self.write_buffer.contains(addr):
            # Store-to-load forwarding out of the write buffer.
            return self.l1d.config.hit_latency + 1
        below = self._l2_read(addr, cycle)
        latency = self.l1d.config.hit_latency + below
        self.l1d_mshr.allocate(block, cycle + latency, cycle)
        return latency

    def store(self, addr: int, cycle: int) -> int:
        """Data store; write-through L1 into the coalescing buffer."""
        if cycle > self._clock:
            self._clock = cycle
        else:
            cycle = self._clock
        self.stats.stores += 1
        if cycle >= self._next_background:
            self._advance_l2(cycle)
        self.l1d.access_hit(addr, True, cycle)
        drained = self.write_buffer.push(addr)
        if drained is not None:
            self._l2_write(drained, cycle)
        # A buffered store retires immediately from the core's view.
        return self.l1d.config.hit_latency

    def drain_write_buffer(self, cycle: int) -> None:
        """Flush all pending buffered stores into the L2."""
        for block in self.write_buffer.drain_all():
            self._l2_write(block, cycle)

    # -- internals -----------------------------------------------------------

    def _advance_l2(self, cycle: int) -> None:
        """Run background work (cleaning sweeps) at every unified level.

        Each level's cleaning write-backs are pushed to the level below
        it (the next cache, or memory for the last level).  Afterwards
        the next call is scheduled for the soonest
        :meth:`~repro.cache.cache.SetAssociativeCache.next_advance_cycle`
        of any level: until then every ``advance`` would find nothing
        due, so skipping it changes no state.
        """
        levels = self.levels
        for idx, cache in enumerate(levels):
            for wb in cache.advance(cycle):
                self._push_down(wb, cycle, idx + 1)
        self._next_background = min(
            cache.next_advance_cycle() for cache in levels
        )

    def _push_down(self, wb, cycle: int, level: int) -> None:
        """Deliver a write-back to ``level`` (memory past the last cache).

        A :class:`~repro.cache.cache.Writeback` carrying a compressed
        ``bytes`` count charges memory that size; ``None`` charges the
        full line, exactly as before.
        """
        if level >= len(self.levels):
            size = wb.bytes
            if size is None:
                size = self.levels[-1].config.line_bytes
            self.memory.write(cycle, size)
        else:
            self._level_access(wb.addr, True, cycle, level)

    def _level_access(
        self, addr: int, is_write: bool, cycle: int, level: int
    ) -> int:
        """Access unified cache ``level``; recurse downward on a miss.

        Returns the latency contributed by this level and everything
        below it.  Write-backs emitted by the access (replacement,
        cleaning, ECC eviction) are pushed to the next level but do not
        add to the requester's latency (they are posted).
        """
        if level >= len(self.levels):
            line_bytes = self.levels[-1].config.line_bytes
            return self.memory.read(cycle, line_bytes) - cycle
        cache = self.levels[level]
        res = cache.access(addr, is_write=is_write, cycle=cycle)
        extra = 0
        for wb in res.writebacks:
            self._push_down(wb, cycle, level + 1)
        if res.fill_addr is not None:
            extra = self._level_access(
                res.fill_addr, False, cycle, level + 1
            )
        return cache.config.hit_latency + extra

    def _l2_read(self, addr: int, cycle: int) -> int:
        return self._level_access(addr, False, cycle, 0)

    def _l2_write(self, addr: int, cycle: int) -> int:
        return self._level_access(addr, True, cycle, 0)

    # -- reporting -------------------------------------------------------------

    def writeback_fraction(self) -> float:
        """Write-backs from the L2 as a fraction of all loads/stores.

        This is the paper's Figures 5/6/8 metric.
        """
        refs = self.stats.loads_stores
        if refs == 0:
            return 0.0
        return self.l2.stats.writebacks_total / refs
