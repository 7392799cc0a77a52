"""Run one benchmark under one protection configuration.

Two run modes:

* **Reference mode** (:func:`run_refs`) — drives just the memory
  hierarchy with the benchmark's memory-reference stream, advancing the
  cycle clock by the instruction gaps.  Fast; used for the residency and
  traffic figures (1, 3–8).
* **CPU mode** (:func:`run_ipc`) — expands the stream into full
  instructions and runs the out-of-order core, so bus contention turns
  into IPC.  Used for the Section 5.2 performance-loss numbers.

Geometry scaling (DESIGN.md §5): Python cannot simulate the paper's
10^9-instruction runs, so the default geometry shrinks every capacity
(L1s, L2, working sets — which are specified relative to the L2 — and
cleaning intervals) by the same factor, preserving the residency and
lifetime relationships the figures depend on.  The paper's full
geometry remains available as ``PAPER_GEOMETRY``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import (
    HierarchyConfig,
    MemoryHierarchy,
    default_l1d_config,
    default_l1i_config,
    default_l2_config,
)
from repro.core.protected_cache import ProtectedL2, ProtectionConfig
from repro.core.scrub import check_invariants
from repro.cpu.ooo import OoOCore, RunResult
from repro.cpu.config import ProcessorConfig
from repro.telemetry.profiling import PhaseProfiler
from repro.telemetry.tracing import EventTracer
from repro.workloads.mix import InstructionMixer, MixConfig
from repro.workloads.spec2000 import BenchmarkSpec, get_benchmark, make_ref_stream


@dataclass(frozen=True)
class Geometry:
    """A coherent scaling of the paper's memory-system capacities.

    ``interval_scale`` maps the paper's cleaning intervals (64K…4M
    cycles) onto this geometry; interval labels always use the paper's
    nominal values.
    """

    name: str
    l1_bytes: int
    l2_bytes: int
    interval_scale: float
    #: The paper's nominal cleaning intervals, in cycles.
    paper_intervals: Tuple[int, ...] = (65536, 262144, 1048576, 4194304)
    #: Write-buffer entries between the L2 and memory (Table 1: 16).
    #: A sweep axis for the autotuner; the write-buffer ablation varies
    #: the same knob through :class:`~repro.cache.hierarchy.HierarchyConfig`.
    write_buffer_entries: int = 16

    def _naive_scaled(self, paper_interval: int) -> int:
        return max(1, int(paper_interval * self.interval_scale))

    def _grid_scaled(self) -> Tuple[int, ...]:
        """Scaled values of the nominal grid, forced strictly increasing.

        Extreme scale factors can collapse neighbouring grid points onto
        the same scaled value (e.g. everything to 1), after which a
        scaled interval could no longer be mapped back to one nominal
        label.  Collapsed points are nudged up by the minimum needed to
        keep the grid injective; ordinary scales (1, 1/32, ...) are
        unaffected.
        """
        scaled: List[int] = []
        prev = 0
        for p in self.paper_intervals:
            s = max(prev + 1, self._naive_scaled(p))
            scaled.append(s)
            prev = s
        return tuple(scaled)

    def scaled_interval(self, paper_interval: int) -> int:
        if paper_interval in self.paper_intervals:
            idx = self.paper_intervals.index(paper_interval)
            return self._grid_scaled()[idx]
        return self._naive_scaled(paper_interval)

    def nominal_interval(self, scaled: int) -> int:
        """Inverse of :meth:`scaled_interval`: paper-nominal cycles.

        Grid points map back exactly; off-grid values are inverted
        arithmetically (best effort for ad-hoc intervals).
        """
        grid = self._grid_scaled()
        if scaled in grid:
            return self.paper_intervals[grid.index(scaled)]
        if self.interval_scale > 0:
            return max(1, round(scaled / self.interval_scale))
        return scaled

    def interval_label_for(self, scaled: int) -> str:
        """The paper's nominal label for a *scaled* interval (``64K``...)."""
        return interval_label(self.nominal_interval(scaled))

    def interval_grid(self) -> List[Tuple[str, int]]:
        """(paper label, scaled cycles) for the sweep figures."""
        return [
            (interval_label(p), self.scaled_interval(p))
            for p in self.paper_intervals
        ]

    def hierarchy_config(self) -> HierarchyConfig:
        l1i = replace(default_l1i_config(), size_bytes=self.l1_bytes)
        l1d = replace(default_l1d_config(), size_bytes=self.l1_bytes)
        l2 = replace(default_l2_config(), size_bytes=self.l2_bytes)
        return HierarchyConfig(
            l1i=l1i, l1d=l1d, l2=l2,
            write_buffer_entries=self.write_buffer_entries,
        )


def interval_label(cycles: int) -> str:
    """Render a cleaning interval the way the paper does (64K, 1M, ...)."""
    if cycles % (1 << 20) == 0:
        return f"{cycles >> 20}M"
    if cycles % (1 << 10) == 0:
        return f"{cycles >> 10}K"
    return str(cycles)


#: The paper's exact Table 1 geometry (slow in Python; for spot checks).
PAPER_GEOMETRY = Geometry(
    name="paper", l1_bytes=32 * 1024, l2_bytes=1024 * 1024, interval_scale=1.0
)

#: Default: capacities scaled by 1/16 (a 64 KB L2 of 1K lines) and
#: cleaning intervals by 1/32, which keeps the line-lifetime vs
#: cleaning-interval ratios of the paper's 10^9-instruction runs intact
#: at trace lengths Python can simulate in seconds (calibrated against
#: the paper's "256K interval → ~2K dirty lines, 1M → ~4K" anchors).
SCALED_GEOMETRY = Geometry(
    name="scaled",
    l1_bytes=2 * 1024,
    l2_bytes=64 * 1024,
    interval_scale=1.0 / 32.0,
)


@dataclass(frozen=True)
class RunConfig:
    """How much work one run does."""

    geometry: Geometry = SCALED_GEOMETRY
    #: Memory references measured (after warm-up).
    n_refs: int = 120_000
    #: Memory references used to warm the hierarchy before measuring.
    warmup_refs: int = 40_000
    seed: int = 0


@dataclass
class RefRunOutput:
    """Measured quantities of one reference-mode run."""

    benchmark: str
    protection: Optional[ProtectionConfig]
    cycles: int
    refs: int
    dirty_fraction: float
    peak_dirty_fraction: float
    #: Write-backs as a fraction of all loads/stores (paper Figs 5/6/8).
    writeback_fraction: float
    #: Same, split by cause: WB / Clean-WB / ECC-WB.
    writeback_split: Dict[str, float]
    l2_miss_rate: float
    bus_utilization: float
    #: Mean dirty-episode length (first write to write-back), cycles.
    mean_dirty_episode_cycles: float = 0.0
    #: Traffic-aware variant counters; all stay 0 on the standard path.
    silent_writes: int = 0
    elided_ecc_updates: int = 0
    wb_bytes_raw: int = 0
    wb_bytes_compressed: int = 0
    #: ``MetricsRegistry.snapshot()`` of the hierarchy at run end.
    snapshot: Optional[Dict[str, Dict[str, float]]] = None


@dataclass
class IpcRunOutput:
    """Measured quantities of one CPU-mode run."""

    benchmark: str
    protection: Optional[ProtectionConfig]
    result: RunResult
    writeback_fraction: float
    dirty_fraction: float
    #: Traffic-aware variant counters; all stay 0 on the standard path.
    silent_writes: int = 0
    elided_ecc_updates: int = 0
    wb_bytes_raw: int = 0
    wb_bytes_compressed: int = 0
    #: Memory-system energy of the run (:mod:`repro.cache.energy`).
    energy_uj: float = 0.0
    #: ``MetricsRegistry.snapshot()`` of the hierarchy at run end.
    snapshot: Optional[Dict[str, Dict[str, float]]] = None

    @property
    def ipc(self) -> float:
        return self.result.ipc


def build_l2(
    geometry: Geometry, protection: Optional[ProtectionConfig], seed: int = 0
) -> SetAssociativeCache:
    """The L2 under test: plain (conventional) or the paper's protected L2.

    ``protection.cleaning_interval`` is given in *paper-nominal* cycles
    and scaled to the geometry here.
    """
    l2_cfg = geometry.hierarchy_config().l2
    if protection is None:
        return SetAssociativeCache(l2_cfg, seed=seed)
    scaled = ProtectionConfig(
        cleaning_interval=(
            geometry.scaled_interval(protection.cleaning_interval)
            if protection.cleaning_interval is not None
            else None
        ),
        ecc_entries_per_set=protection.ecc_entries_per_set,
    )
    return ProtectedL2(l2_cfg, scaled, seed=seed)


def _build_hierarchy(
    config: RunConfig, protection: Optional[ProtectionConfig]
) -> MemoryHierarchy:
    geometry = config.geometry
    l2 = build_l2(geometry, protection, seed=config.seed)
    return MemoryHierarchy(config=geometry.hierarchy_config(), l2=l2)


def _variant_hierarchy(
    config: RunConfig,
    protection: Optional[ProtectionConfig],
    variant: str,
) -> MemoryHierarchy:
    """A hierarchy around the variant registry's L2 (or the standard one).

    The ``standard`` variant routes through :func:`_build_hierarchy`
    unchanged, so default-path runs are bit-identical to a world without
    the variant registry.
    """
    if variant == "standard":
        return _build_hierarchy(config, protection)
    from repro.core.policy import build_variant_l2

    l2 = build_variant_l2(
        variant, config.geometry, protection, seed=config.seed
    )
    return MemoryHierarchy(config=config.geometry.hierarchy_config(), l2=l2)


def _reset_measurement(hierarchy: MemoryHierarchy, cycle: int) -> None:
    """Zero every counter after warm-up, keeping cache contents.

    Every stats holder in the hierarchy registered itself into
    ``hierarchy.registry`` at construction, so the measurement boundary
    is one registry call; component-specific boundary work (the
    dirty-episode clamp, restarting the residency integrator) lives in
    each component's own ``reset``.
    """
    hierarchy.reset_measurement(cycle)


def run_refs(
    benchmark: str,
    protection: Optional[ProtectionConfig],
    config: RunConfig = RunConfig(),
    tracer: Optional[EventTracer] = None,
    profiler: Optional[PhaseProfiler] = None,
    variant: str = "standard",
) -> RefRunOutput:
    """Reference-mode run of one benchmark under one protection config."""
    hierarchy = _variant_hierarchy(config, protection, variant)
    return run_refs_with_hierarchy(
        benchmark, hierarchy, config, protection,
        tracer=tracer, profiler=profiler,
    )


def run_refs_with_hierarchy(
    benchmark: str,
    hierarchy: MemoryHierarchy,
    config: RunConfig = RunConfig(),
    protection: Optional[ProtectionConfig] = None,
    tracer: Optional[EventTracer] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> RefRunOutput:
    """Reference-mode run against a caller-supplied hierarchy.

    Used by the ablation experiments to measure non-standard L2s (e.g.
    the eager-writeback baseline) under identical workload conditions.
    """
    spec: BenchmarkSpec = get_benchmark(benchmark)
    stream = make_ref_stream(spec, config.geometry.l2_bytes, seed=config.seed)
    return run_ref_stream(
        stream, hierarchy, config, benchmark, protection,
        tracer=tracer, profiler=profiler,
    )


def run_ref_stream(
    stream,
    hierarchy: MemoryHierarchy,
    config: RunConfig = RunConfig(),
    label: str = "trace",
    protection: Optional[ProtectionConfig] = None,
    tracer: Optional[EventTracer] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> RefRunOutput:
    """Drive a hierarchy with an explicit reference stream.

    Each reference is a :class:`~repro.workloads.generators.MemRef` (or
    any ``(is_write, addr, gap)`` triple: the loop unpacks it).  The
    first ``config.warmup_refs`` references warm the caches with
    statistics discarded; the next ``config.n_refs`` are measured.  A
    shorter stream (e.g. a user trace file) simply ends early — the
    measured counts are whatever it contained.

    ``tracer`` (opt-in) records structured events from every cache
    level; ``profiler`` (opt-in) accounts wall time to the warm-up and
    measurement phases.
    """
    if tracer is not None:
        hierarchy.attach_tracer(tracer)
    if profiler is None:
        # A throwaway profiler keeps the code single-path; the cost is
        # two perf_counter pairs per run, not per reference.
        profiler = PhaseProfiler()
    # Sequences must behave like generators: islice over a list would
    # *replay* the warm-up references in the measured window.
    stream = iter(stream)
    cycle = 0
    load, store = hierarchy.load, hierarchy.store
    with profiler.phase("warmup") as rec:
        for is_write, addr, gap in itertools.islice(stream, config.warmup_refs):
            cycle += 1 + gap
            if is_write:
                store(addr, cycle)
            else:
                load(addr, cycle)
        rec.events += (
            hierarchy.stats.loads_stores + hierarchy.stats.ifetches
        )

    _reset_measurement(hierarchy, cycle)
    start_cycle = cycle
    with profiler.phase("measure") as rec:
        for is_write, addr, gap in itertools.islice(stream, config.n_refs):
            cycle += 1 + gap
            if is_write:
                store(addr, cycle)
            else:
                load(addr, cycle)
        # Stats were zeroed at the boundary, so this is the measured count.
        rec.events += (
            hierarchy.stats.loads_stores + hierarchy.stats.ifetches
        )

    check_invariants(hierarchy.l2)
    l2 = hierarchy.l2
    elapsed = cycle - start_cycle
    refs = hierarchy.stats.loads_stores
    split = {
        "WB": l2.stats.writebacks_replacement / refs if refs else 0.0,
        "Clean-WB": l2.stats.writebacks_cleaning / refs if refs else 0.0,
        "ECC-WB": l2.stats.writebacks_ecc_eviction / refs if refs else 0.0,
    }
    return RefRunOutput(
        benchmark=label,
        protection=protection,
        cycles=elapsed,
        refs=refs,
        dirty_fraction=l2.dirty.average_dirty_fraction(cycle),
        peak_dirty_fraction=l2.dirty.peak_dirty / l2.config.n_lines,
        writeback_fraction=hierarchy.writeback_fraction(),
        writeback_split=split,
        l2_miss_rate=l2.stats.miss_rate,
        bus_utilization=hierarchy.memory.utilization(elapsed),
        mean_dirty_episode_cycles=l2.stats.mean_dirty_episode_cycles,
        silent_writes=l2.stats.silent_writes,
        elided_ecc_updates=l2.stats.elided_ecc_updates,
        wb_bytes_raw=l2.stats.wb_bytes_raw,
        wb_bytes_compressed=l2.stats.wb_bytes_compressed,
        snapshot=hierarchy.snapshot(),
    )


def run_trace(
    stream,
    protection: Optional[ProtectionConfig],
    config: RunConfig = RunConfig(),
    label: str = "trace",
    tracer: Optional[EventTracer] = None,
    profiler: Optional[PhaseProfiler] = None,
    variant: str = "standard",
) -> RefRunOutput:
    """Reference-mode run of an arbitrary trace (e.g. from a file)."""
    hierarchy = _variant_hierarchy(config, protection, variant)
    return run_ref_stream(
        stream, hierarchy, config, label, protection,
        tracer=tracer, profiler=profiler,
    )


def run_ipc(
    benchmark: str,
    protection: Optional[ProtectionConfig],
    config: RunConfig = RunConfig(),
    n_insts: Optional[int] = None,
    processor: Optional[ProcessorConfig] = None,
    variant: str = "standard",
) -> IpcRunOutput:
    """CPU-mode run: full out-of-order timing, returns IPC and traffic.

    ``variant`` selects the L2 under test from the variant registry
    (:func:`repro.core.policy.available_variants`); ``standard`` is the
    plain/protected L2 the paper evaluates.
    """
    spec = get_benchmark(benchmark)
    hierarchy = _variant_hierarchy(config, protection, variant)
    stream = make_ref_stream(spec, config.geometry.l2_bytes, seed=config.seed)
    mix = MixConfig(fp_fraction=0.5 if spec.suite == "fp" else 0.1)
    mixer = InstructionMixer(mix, seed=config.seed)
    core = OoOCore(hierarchy, config=processor)

    if n_insts is None:
        n_insts = config.n_refs * 3
    insts = itertools.islice(mixer.expand(stream), n_insts)
    result = core.run(insts)

    check_invariants(hierarchy.l2)
    l2 = hierarchy.l2
    dirty = l2.dirty.average_dirty_fraction(hierarchy.clock)
    # Charge the unprotected baseline as the conventional (uniform-ECC)
    # design and any protected L2 as the paper's proposed scheme — the
    # same pairing compare_schemes uses for the org/ours tables.
    from repro.cache.energy import estimate_energy

    if protection is None and variant == "standard":
        energy = estimate_energy(hierarchy, "conventional", 1.0)
    else:
        energy = estimate_energy(
            hierarchy, "proposed", min(max(dirty, 0.0), 1.0)
        )
    return IpcRunOutput(
        benchmark=benchmark,
        protection=protection,
        result=result,
        writeback_fraction=hierarchy.writeback_fraction(),
        dirty_fraction=dirty,
        silent_writes=l2.stats.silent_writes,
        elided_ecc_updates=l2.stats.elided_ecc_updates,
        wb_bytes_raw=l2.stats.wb_bytes_raw,
        wb_bytes_compressed=l2.stats.wb_bytes_compressed,
        energy_uj=energy.total_uj,
        snapshot=hierarchy.snapshot(),
    )
