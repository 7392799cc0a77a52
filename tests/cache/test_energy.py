"""Tests for the energy model."""

import pytest

from repro.cache import MemoryHierarchy
from repro.cache.energy import (
    EnergyParams,
    compare_schemes,
    energy_from_counters,
    estimate_energy,
)
from repro.experiments import RunConfig, SCALED_GEOMETRY, run_refs
from repro.experiments.runner import _build_hierarchy
from repro.core import ProtectionConfig


def driven_hierarchy(protection=None, n=4000):
    """A hierarchy with some traffic through it."""
    import itertools

    from repro.workloads import get_benchmark, make_ref_stream

    config = RunConfig(n_refs=n, warmup_refs=0)
    h = _build_hierarchy(config, protection)
    stream = make_ref_stream(
        get_benchmark("mesa"), SCALED_GEOMETRY.l2_bytes, seed=0
    )
    cycle = 0
    for ref in itertools.islice(stream, n):
        cycle += 1 + ref.gap
        (h.store if ref.is_write else h.load)(ref.addr, cycle)
    return h


class TestValidation:
    def test_unknown_scheme(self):
        h = MemoryHierarchy()
        with pytest.raises(ValueError):
            estimate_energy(h, "magic")

    def test_bad_dirty_fraction(self):
        h = MemoryHierarchy()
        with pytest.raises(ValueError):
            estimate_energy(h, "proposed", dirty_fraction=1.5)


class TestComponents:
    def test_idle_hierarchy_zero_energy(self):
        h = MemoryHierarchy()
        e = estimate_energy(h, "conventional")
        assert e.total_nj == 0.0

    def test_components_present(self):
        h = driven_hierarchy()
        e = estimate_energy(h, "conventional")
        for key in ("L1 arrays", "L2 array", "off-chip bus", "DRAM",
                    "L2 ECC logic", "L1 parity logic"):
            assert key in e.components
            assert e.components[key] >= 0.0

    def test_rows_end_with_total(self):
        h = driven_hierarchy()
        e = estimate_energy(h, "conventional")
        rows = e.rows()
        assert rows[-1][0] == "total"
        assert rows[-1][1] == pytest.approx(e.total_nj)

    def test_units(self):
        h = driven_hierarchy()
        e = estimate_energy(h, "conventional")
        assert e.total_uj == pytest.approx(e.total_nj / 1000)


class TestSchemeComparison:
    def test_proposed_cuts_coding_energy(self):
        """The paper's scheme does less ECC work at the same traffic."""
        h = driven_hierarchy()
        conv = estimate_energy(h, "conventional")
        prop = estimate_energy(h, "proposed", dirty_fraction=0.3)
        assert (
            prop.components["L2 ECC logic"]
            < conv.components["L2 ECC logic"]
        )
        # Array/bus/DRAM identical on the same hierarchy.
        assert prop.components["DRAM"] == conv.components["DRAM"]

    def test_coding_energy_grows_with_dirty_fraction(self):
        h = driven_hierarchy()
        low = estimate_energy(h, "proposed", dirty_fraction=0.1)
        high = estimate_energy(h, "proposed", dirty_fraction=0.9)
        assert (
            high.components["L2 ECC logic"]
            >= low.components["L2 ECC logic"]
        )

    def test_compare_schemes_end_to_end(self):
        """Full comparison over two real runs of the same workload."""
        org = driven_hierarchy(protection=None)
        protection = ProtectionConfig(
            cleaning_interval=1 << 18, ecc_entries_per_set=1
        )
        ours = driven_hierarchy(protection=protection)
        out = compare_schemes(org, ours, proposed_dirty_fraction=0.2)
        assert set(out) == {"conventional", "proposed"}
        # Coding logic: proposed well below conventional.
        assert (
            out["proposed"].components["L2 ECC logic"]
            < out["conventional"].components["L2 ECC logic"]
        )

    def test_custom_params_scale(self):
        h = driven_hierarchy()
        base = estimate_energy(h, "conventional")
        doubled = estimate_energy(
            h, "conventional",
            params=EnergyParams(dram_access=60.0),
        )
        assert doubled.components["DRAM"] == pytest.approx(
            2 * base.components["DRAM"]
        )


def live_energy(hierarchy, scheme, dirty_fraction, params):
    """The energy formula evaluated on the live hierarchy's stats objects
    (properties, not snapshot keys): the oracle the counter-based model
    must reproduce bit for bit."""
    words_l2 = hierarchy.l2.config.line_bytes * 8 // 64
    words_l1 = hierarchy.l1d.config.line_bytes * 8 // 64
    l2, mem = hierarchy.l2.stats, hierarchy.memory.stats
    l1 = hierarchy.l1i.stats.accesses + hierarchy.l1d.stats.accesses
    parts = {
        "L1 arrays": l1 * params.l1_access,
        "L2 array": l2.accesses * params.l2_access,
        "off-chip bus": (mem.bytes_read + mem.bytes_written)
        * params.bus_per_byte,
        "DRAM": mem.transactions * params.dram_access,
        "L1 parity logic": l1 * words_l1 * params.parity_per_word,
    }
    reads = l2.read_hits + l2.read_misses
    writes = l2.write_hits + l2.write_misses
    ops = (reads + writes + l2.fills + l2.writebacks_total) * words_l2
    if scheme == "conventional":
        parts["L2 ECC logic"] = ops * params.ecc_per_word
        parts["L2 parity logic"] = 0.0
    else:
        parts["L2 parity logic"] = ops * params.parity_per_word
        ecc_words = (
            (writes - l2.elided_ecc_updates) * words_l2
            + reads * dirty_fraction * words_l2
            + l2.writebacks_total * words_l2
        )
        parts["L2 ECC logic"] = max(0.0, ecc_words) * params.ecc_per_word
    return parts


class TestCountersMatchLiveHierarchy:
    """Energy from a run's snapshot equals energy from its hierarchy,
    with ``==``: the autotuner scores cached simulation outputs, so the
    two must never drift apart by even one ulp."""

    CELLS = {
        "org": (None, "standard"),
        "non-uniform": (ProtectionConfig(1 << 18, 1), "standard"),
        "silent-write": (ProtectionConfig(1 << 18, 1), "silent-write"),
    }

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @pytest.mark.parametrize("scheme", ["conventional", "proposed"])
    @pytest.mark.parametrize(
        "params",
        [EnergyParams(), EnergyParams(ecc_per_word=0.0)],
        ids=["default", "parity-only"],
    )
    def test_bit_identical(self, cell, scheme, params):
        from repro.core.policy import build_variant_l2
        from repro.experiments.pool import Cell, execute_cell
        from repro.experiments.runner import run_refs_with_hierarchy

        protection, variant = self.CELLS[cell]
        config = RunConfig(n_refs=4000, warmup_refs=1000, seed=2)
        geometry = config.geometry
        h = MemoryHierarchy(
            config=geometry.hierarchy_config(),
            l2=build_variant_l2(
                variant, geometry, protection, seed=config.seed
            ),
        )
        out = run_refs_with_hierarchy("mesa", h, config, protection)
        # The cached cell output carries the same counters.
        cached = execute_cell(
            Cell("mesa", protection, config, variant=variant)
        )
        assert cached.snapshot == out.snapshot
        dirty = min(max(out.dirty_fraction, 0.0), 1.0)
        hc = geometry.hierarchy_config()
        counted = energy_from_counters(
            cached.snapshot, scheme, dirty, params,
            l1_line_bytes=hc.l1d.line_bytes,
            l2_line_bytes=hc.l2.line_bytes,
        )
        expected = live_energy(h, scheme, dirty, params)
        assert counted.components == expected
        assert list(counted.components) == list(expected)
        assert estimate_energy(h, scheme, dirty, params).components == expected
        if variant == "silent-write":
            assert h.l2.stats.elided_ecc_updates > 0
