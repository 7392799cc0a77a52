"""The hit-only write-through L1 path equals the generic access path.

:meth:`SetAssociativeCache.access_hit` is the lean lookup the memory
hierarchy runs for its write-through L1s on every reference;
:meth:`SetAssociativeCache.access` stays the one path for unified
levels and is the oracle here.  Also pinned: the one-pass LRU victim
against the old two-pass choice, that a reference-mode run never sends
an L1 through ``access``, and that a write-back L1 is rejected.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import (
    CacheConfig,
    CacheLine,
    HierarchyConfig,
    LruPolicy,
    MemoryHierarchy,
    SetAssociativeCache,
    WritePolicy,
)
from repro.core.protected_cache import ProtectionConfig
from repro.experiments.runner import RunConfig, run_ipc, run_refs


def wt_config(replacement, write_allocate, ways):
    return CacheConfig(
        name="l1d",
        size_bytes=32 * ways * 4,
        ways=ways,
        line_bytes=32,
        write_policy=WritePolicy.WRITE_THROUGH,
        write_allocate=write_allocate,
        replacement=replacement,
    )


def cache_state(cache):
    rng = getattr(cache.policy, "_rng", None)  # RandomPolicy only
    return (
        [
            [tuple(getattr(line, slot) for slot in CacheLine.__slots__)
             for line in ways]
            for ways in cache.sets
        ],
        cache.stats,
        cache.dirty,
        cache._stamp,
        None if rng is None else rng.getstate(),
    )


refs = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=2047)),
    min_size=1,
    max_size=300,
)


@given(
    replacement=st.sampled_from(["lru", "fifo", "random"]),
    write_allocate=st.booleans(),
    ways=st.sampled_from([1, 2, 4]),
    stream=refs,
)
def test_access_hit_matches_access(replacement, write_allocate, ways, stream):
    config = wt_config(replacement, write_allocate, ways)
    oracle = SetAssociativeCache(config, seed=3)
    lean = SetAssociativeCache(config, seed=3)
    for cycle, (is_write, addr) in enumerate(stream, start=1):
        res = oracle.access(addr, is_write, cycle)
        assert lean.access_hit(addr, is_write, cycle) is res.hit
        # Nothing but the hit flag is information on a write-through level.
        assert res.writebacks == []
        assert res.wrote_through is is_write
        allocates = not res.hit and (not is_write or write_allocate)
        assert (res.fill_addr is not None) is allocates
    assert cache_state(lean) == cache_state(oracle)


def two_pass_lru(ways):
    """The pre-one-pass LRU choice: first invalid, else first min stamp."""
    for i, line in enumerate(ways):
        if not line.valid:
            return i
    victim, oldest = 0, ways[0].lru_stamp
    for i in range(1, len(ways)):
        if ways[i].lru_stamp < oldest:
            victim, oldest = i, ways[i].lru_stamp
    return victim


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=8,
    )
)
def test_one_pass_lru_equals_two_pass(spec):
    ways = []
    for valid, stamp in spec:
        line = CacheLine()
        if valid:
            line.fill(tag=len(ways), cycle=0, stamp=stamp)
        else:
            line.lru_stamp = stamp  # stale stamps on invalid ways
        ways.append(line)
    assert LruPolicy().choose_victim(ways) == two_pass_lru(ways)


def test_run_never_sends_an_l1_through_access(monkeypatch):
    """The hierarchy's L1 references all take the hit-only path."""
    seen = []
    original = SetAssociativeCache.access

    def spy(self, addr, is_write, cycle):
        seen.append(self.config.name)
        return original(self, addr, is_write, cycle)

    monkeypatch.setattr(SetAssociativeCache, "access", spy)
    config = RunConfig(n_refs=2000, warmup_refs=500)
    run_refs("mesa", ProtectionConfig(cleaning_interval=262144), config)
    run_refs("mcf", None, config, variant="standard")
    run_ipc("swim", None, config, n_insts=2000)
    assert "l2" in seen  # the spy is live
    assert not {"l1d", "l1i"} & set(seen)


@pytest.mark.parametrize("level", ["l1i", "l1d"])
def test_write_back_l1_rejected(level):
    config = HierarchyConfig()
    l1 = getattr(config, level)
    l1.write_policy = WritePolicy.WRITE_BACK
    l1.write_allocate = True
    with pytest.raises(ValueError, match=f"{level}.*write-through"):
        MemoryHierarchy(config)


def test_default_l1s_are_write_through_no_allocate():
    config = HierarchyConfig()
    for l1 in (config.l1i, config.l1d):
        assert l1.write_policy is WritePolicy.WRITE_THROUGH
        assert not l1.write_allocate
