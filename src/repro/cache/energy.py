"""Energy accounting for the memory system and its protection logic.

The paper motivates the cleaning-interval choice by memory-traffic
energy ("increased memory traffic ... results in increased energy
consumption") and cites Li et al. [11], who choose parity over ECC for
its energy efficiency.  This module estimates those quantities from a
run's event counters:

* array access energy per L1/L2 access and per DRAM access;
* off-chip bus energy per byte moved;
* protection-logic energy per 64-bit word — parity (1-bit XOR tree)
  versus SECDED (8-bit encode/syndrome), where ECC logic costs several
  times parity.

Default coefficients are CACTI-class ballpark values for the paper's
era (130–180 nm, nanojoules); they are parameters, not claims — the
*relative* comparison between schemes is the point.

:func:`energy_from_counters` is the one formula; it reads a hierarchy
snapshot, so cached simulation results can be scored as well as live
hierarchies (:func:`estimate_energy` is the live-hierarchy adapter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.cache.hierarchy import MemoryHierarchy


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies, in nanojoules."""

    l1_access: float = 0.3
    l2_access: float = 2.0
    dram_access: float = 30.0
    bus_per_byte: float = 0.4
    #: Checking/encoding one 64-bit word's parity (single XOR tree).
    parity_per_word: float = 0.01
    #: Checking/encoding one 64-bit word's SECDED (8 trees + correction).
    ecc_per_word: float = 0.06


@dataclass
class EnergyBreakdown:
    """Energy by component, in nanojoules."""

    scheme: str
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total_nj(self) -> float:
        return sum(self.components.values())

    @property
    def total_uj(self) -> float:
        return self.total_nj / 1000.0

    def rows(self):
        out = [(k, v) for k, v in self.components.items()]
        out.append(("total", self.total_nj))
        return out


def estimate_energy(
    hierarchy: MemoryHierarchy,
    scheme: str,
    dirty_fraction: float = 0.5,
    params: EnergyParams = EnergyParams(),
) -> EnergyBreakdown:
    """:func:`energy_from_counters` over a live hierarchy's counters."""
    return energy_from_counters(
        hierarchy.snapshot(), scheme, dirty_fraction, params,
        l1_line_bytes=hierarchy.l1d.config.line_bytes,
        l2_line_bytes=hierarchy.l2.config.line_bytes,
    )


def energy_from_counters(
    counters: Mapping[str, Mapping[str, float]],
    scheme: str,
    dirty_fraction: float = 0.5,
    params: EnergyParams = EnergyParams(),
    *,
    l1_line_bytes: int,
    l2_line_bytes: int,
) -> EnergyBreakdown:
    """Estimate a run's memory-system energy under a protection scheme.

    ``counters`` is a hierarchy snapshot
    (:meth:`~repro.cache.hierarchy.MemoryHierarchy.snapshot`, also
    carried by every reference-mode run output), so a finished or
    cached simulation is scored without its hierarchy.  The line sizes
    are the L1D's and the L2's; coding logic is charged per 64-bit word.

    ``scheme`` is ``"conventional"`` (SECDED checked/encoded on every L2
    access) or ``"proposed"`` (parity on every access; ECC work only for
    the dirty-line operations).  ``dirty_fraction`` apportions the
    proposed scheme's read checks between parity-only (clean) and
    parity+ECC (dirty) lines — pass the run's measured average.

    The L1s carry parity in both schemes (both systems the paper cites
    do), so their check energy is charged identically.
    """
    if scheme not in ("conventional", "proposed"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 0.0 <= dirty_fraction <= 1.0:
        raise ValueError("dirty_fraction must be in [0, 1]")

    words_per_l2_line = l2_line_bytes * 8 // 64
    words_per_l1_line = l1_line_bytes * 8 // 64
    l2 = counters["l2"]
    mem = counters["memory"]

    l1_accesses = _accesses(counters["l1i"]) + _accesses(counters["l1d"])
    components = {
        "L1 arrays": l1_accesses * params.l1_access,
        "L2 array": _accesses(l2) * params.l2_access,
        "off-chip bus": (mem["bytes_read"] + mem["bytes_written"])
        * params.bus_per_byte,
        "DRAM": (mem["reads"] + mem["writes"]) * params.dram_access,
        "L1 parity logic": (
            l1_accesses * words_per_l1_line * params.parity_per_word
        ),
    }

    l2_reads = l2["read_hits"] + l2["read_misses"]
    l2_writes = l2["write_hits"] + l2["write_misses"]
    writebacks = (
        l2["writebacks_replacement"]
        + l2["writebacks_cleaning"]
        + l2["writebacks_ecc_eviction"]
        + l2["writebacks_eager"]
    )
    #: Every fill and write-back also passes the coding logic.
    l2_moves = l2["fills"] + writebacks

    if scheme == "conventional":
        checked = (l2_reads + l2_writes + l2_moves) * words_per_l2_line
        components["L2 ECC logic"] = checked * params.ecc_per_word
        components["L2 parity logic"] = 0.0
    else:
        all_ops = (l2_reads + l2_writes + l2_moves) * words_per_l2_line
        # Parity is maintained on every operation.
        components["L2 parity logic"] = all_ops * params.parity_per_word
        # ECC work: every write encodes; reads check ECC only when the
        # line is dirty; write-backs of dirty lines re-check.  Writes a
        # silent-write variant elided never reach the encoder, so their
        # word count comes straight back off (0 on the nominal path).
        ecc_words = (
            (l2_writes - l2["elided_ecc_updates"]) * words_per_l2_line
            + l2_reads * dirty_fraction * words_per_l2_line
            + writebacks * words_per_l2_line
        )
        components["L2 ECC logic"] = max(0.0, ecc_words) * params.ecc_per_word

    return EnergyBreakdown(scheme=scheme, components=components)


def _accesses(cache: Mapping[str, float]) -> float:
    """Demand accesses of one cache's snapshot group."""
    return (
        cache["read_hits"] + cache["read_misses"]
        + cache["write_hits"] + cache["write_misses"]
    )


def compare_schemes(
    conventional_hierarchy: MemoryHierarchy,
    proposed_hierarchy: MemoryHierarchy,
    proposed_dirty_fraction: float,
    params: EnergyParams = EnergyParams(),
) -> Dict[str, EnergyBreakdown]:
    """Energy of two same-workload runs, one per scheme."""
    return {
        "conventional": estimate_energy(
            conventional_hierarchy, "conventional", 1.0, params
        ),
        "proposed": estimate_energy(
            proposed_hierarchy, "proposed", proposed_dirty_fraction, params
        ),
    }
