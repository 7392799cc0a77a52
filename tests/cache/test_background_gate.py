"""The hierarchy's background-work gate against an every-reference oracle.

:class:`~repro.cache.hierarchy.MemoryHierarchy` calls ``advance`` on its
unified levels only once its clock reaches the soonest
``next_advance_cycle()``.  The oracle below pins that gate open, so
``advance`` runs on every reference exactly as a polling simulator
would; both must produce the same run output, counter snapshot
included, for every L2 variant and at every level.
"""

import pytest

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.core.policy import available_variants, build_variant_l2
from repro.core.protected_cache import ProtectedL2, ProtectionConfig
from repro.experiments import runner
from repro.experiments.runner import (
    SCALED_GEOMETRY,
    RunConfig,
    run_ipc,
    run_refs,
    run_refs_with_hierarchy,
)


class EveryRefHierarchy(MemoryHierarchy):
    """Runs background work on every reference (the gate pinned open)."""

    _next_background = property(lambda self: 0, lambda self, value: None)


CONFIG = RunConfig(n_refs=6000, warmup_refs=2000, seed=3)
#: Paper-nominal 64K cycles: scaled, many sweeps fit into a short run.
PROTECTION = ProtectionConfig(cleaning_interval=1 << 16)


def _both(monkeypatch, run):
    """``run()`` with the gated hierarchy, then with the oracle."""
    gated = run()
    monkeypatch.setattr(runner, "MemoryHierarchy", EveryRefHierarchy)
    oracle = run()
    return gated, oracle


@pytest.mark.parametrize("variant", available_variants())
def test_variant_matches_every_reference_oracle(monkeypatch, variant):
    gated, oracle = _both(
        monkeypatch,
        lambda: run_refs("mcf", PROTECTION, CONFIG, variant=variant),
    )
    assert gated == oracle
    assert gated.snapshot == oracle.snapshot


def test_cleaning_actually_ran():
    """The equivalence above is not vacuous: sweeps fire mid-run."""
    out = run_refs("mcf", PROTECTION, CONFIG)
    assert out.snapshot["l2.cleaning"]["checks"] > 100
    assert out.writeback_split["Clean-WB"] > 0


def test_unprotected_l2_matches_oracle(monkeypatch):
    gated, oracle = _both(
        monkeypatch, lambda: run_refs("swim", None, CONFIG)
    )
    assert gated == oracle


def _three_level(cls):
    geo = SCALED_GEOMETRY
    base = geo.hierarchy_config()
    l3_cfg = CacheConfig("l3", 256 * 1024, 8, 64, hit_latency=25)
    cfg = HierarchyConfig(
        l1i=base.l1i, l1d=base.l1d, l2=base.l2, l3=l3_cfg,
        write_buffer_entries=base.write_buffer_entries,
    )
    l2 = build_variant_l2("standard", geo, PROTECTION, seed=CONFIG.seed)
    # A different interval, so the two levels fall due at different
    # cycles and the gate has to take the minimum.
    l3 = ProtectedL2(l3_cfg, ProtectionConfig(cleaning_interval=3001))
    return cls(config=cfg, l2=l2, l3=l3)


def test_protected_l3_matches_oracle():
    gated = run_refs_with_hierarchy(
        "parser", _three_level(MemoryHierarchy), CONFIG, PROTECTION
    )
    oracle = run_refs_with_hierarchy(
        "parser", _three_level(EveryRefHierarchy), CONFIG, PROTECTION
    )
    assert gated == oracle
    assert gated.snapshot["l3.cleaning"]["checks"] > 0


def test_run_ipc_matches_oracle(monkeypatch):
    """The OoO core presents non-monotone cycles; the clamp still holds."""
    config = RunConfig(n_refs=1500, warmup_refs=0, seed=1)
    gated, oracle = _both(
        monkeypatch, lambda: run_ipc("swim", PROTECTION, config)
    )
    assert gated == oracle
    assert gated.snapshot["l2.cleaning"]["checks"] > 0


def _defining_class(cls, attr):
    return next(k for k in cls.__mro__ if attr in k.__dict__)


@pytest.mark.parametrize("variant", available_variants())
def test_variant_schedules_its_background_work(variant):
    """A variant that overrides ``advance`` must say when it is due.

    The hierarchy calls ``advance`` only at ``next_advance_cycle()``, so
    an ``advance`` override paired with an inherited schedule could
    silently lose its background work.
    """
    l2 = build_variant_l2(variant, SCALED_GEOMETRY, PROTECTION)
    cls = type(l2)
    advance_owner = _defining_class(cls, "advance")
    schedule_owner = _defining_class(cls, "next_advance_cycle")
    assert issubclass(schedule_owner, advance_owner), (
        f"variant {variant!r}: {cls.__name__}.advance comes from "
        f"{advance_owner.__name__} but next_advance_cycle from "
        f"{schedule_owner.__name__}; override next_advance_cycle or "
        f"inherit the ProtectedL2 sweep loop and override _sweep_line"
    )


def test_unprotected_caches_never_fall_due():
    l2 = SetAssociativeCache(SCALED_GEOMETRY.hierarchy_config().l2)
    assert l2.next_advance_cycle() == float("inf")
    eager = build_variant_l2("eager", SCALED_GEOMETRY, PROTECTION)
    assert eager.next_advance_cycle() == float("inf")
    off = ProtectedL2(
        SCALED_GEOMETRY.hierarchy_config().l2,
        ProtectionConfig(cleaning_interval=None),
    )
    assert off.next_advance_cycle() == float("inf")
    assert MemoryHierarchy(l2=l2)._next_background == float("inf")
