"""Cache-hierarchy substrate: the trace-driven memory system simulator.

Models the paper's baseline memory system (Table 1): write-through L1
instruction/data caches backed by a 16-entry coalescing write buffer, a
unified write-back L2, and an 8-byte-wide 100-cycle main memory behind a
split-transaction bus.  The paper's protected L2 (``repro.core``) plugs
into this hierarchy in place of the plain L2.
"""

from repro.cache.cache import (
    AccessResult,
    CacheConfig,
    SetAssociativeCache,
    Writeback,
    WritebackReason,
    WritePolicy,
)
from repro.cache.energy import (
    EnergyBreakdown,
    EnergyParams,
    compare_schemes,
    energy_from_counters,
    estimate_energy,
)
from repro.cache.hierarchy import (
    HierarchyConfig,
    MemoryHierarchy,
    default_l1d_config,
    default_l1i_config,
    default_l2_config,
    default_l3_config,
)
from repro.cache.line import CacheLine
from repro.cache.mainmem import MainMemory, MemoryConfig
from repro.cache.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.cache.stats import CacheStats, DirtyIntegrator
from repro.cache.write_buffer import WriteBuffer

__all__ = [
    "AccessResult",
    "CacheConfig",
    "CacheLine",
    "CacheStats",
    "DirtyIntegrator",
    "EnergyBreakdown",
    "EnergyParams",
    "compare_schemes",
    "energy_from_counters",
    "estimate_energy",
    "FifoPolicy",
    "HierarchyConfig",
    "LruPolicy",
    "MainMemory",
    "MemoryConfig",
    "MemoryHierarchy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "WriteBuffer",
    "Writeback",
    "WritebackReason",
    "WritePolicy",
    "default_l1d_config",
    "default_l1i_config",
    "default_l2_config",
    "default_l3_config",
    "make_policy",
]
