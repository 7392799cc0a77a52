"""``CleaningLogic.next_due``: the exact cycle of the next set visit.

The hierarchy skips the cleaning sweep until ``next_due``, so it must be
exact: no set may come due earlier, and one must come due right then.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.core import CleaningLogic, ProtectedL2, ProtectionConfig


@given(
    n_sets=st.sampled_from([1, 2, 3, 4, 7, 16, 64]),
    interval=st.integers(1, 5000),
    # Gaps up to ~10 intervals: long ones hit the two-sweep cap.
    steps=st.lists(st.integers(0, 50_000), min_size=1, max_size=40),
    probes=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_nothing_due_before_next_due_and_something_at_it(
    n_sets, interval, steps, probes
):
    cl = CleaningLogic(n_sets=n_sets, interval_cycles=interval)
    cycle = 0
    for step, probe in zip(steps, probes):
        due = cl.next_due
        assert due >= cycle
        # Any cycle short of next_due yields nothing and keeps it.
        early = cycle + int(probe * (due - cycle))
        if early < due:
            assert list(cl.due_sets(early)) == []
            assert cl.next_due == due
            cycle = early
        # next_due itself yields at least one set.
        assert list(cl.due_sets(due))
        cycle = due
        # Then move on by an arbitrary gap (possibly past the cap).
        cycle += step
        list(cl.due_sets(cycle))


@given(
    n_sets=st.sampled_from([1, 3, 8, 32]),
    interval=st.integers(1, 3000),
    gap=st.integers(0, 100_000),
)
@settings(max_examples=100, deadline=None)
def test_accrue_never_moves_next_due(n_sets, interval, gap):
    cl = CleaningLogic(n_sets=n_sets, interval_cycles=interval)
    list(cl.due_sets(gap))
    due = cl.next_due
    for cycle in range(gap, due, max(1, (due - gap) // 7)):
        cl.accrue(cycle)
        assert cl.next_due == due


def test_next_due_after_capped_gap():
    cl = CleaningLogic(n_sets=4, interval_cycles=10)
    assert len(list(cl.due_sets(1_000_003))) == 8  # capped at two sweeps
    # The cap discards the gap's remainder modulo one interval; the
    # schedule must pick up from what is left, not from the raw gap.
    due = cl.next_due
    assert due > 1_000_003
    assert list(cl.due_sets(due - 1)) == []
    assert list(cl.due_sets(due)) != []


def _l2(interval=1000):
    return ProtectedL2(
        CacheConfig("l2", 4096, 4, 64), ProtectionConfig(interval, None)
    )


def test_backwards_advance_still_raises():
    """Even when neither call has a set due (the early-return path)."""
    l2 = _l2()
    assert l2.advance(100) == []
    with pytest.raises(ValueError, match="backwards"):
        l2.advance(50)


def test_backwards_advance_raises_after_a_sweep():
    l2 = _l2(interval=64)
    l2.advance(100)
    assert l2.cleaning.checks > 0
    with pytest.raises(ValueError, match="backwards"):
        l2.advance(50)


def test_next_advance_cycle_is_next_due():
    l2 = _l2()
    assert l2.next_advance_cycle() == l2.cleaning.next_due
    l2.advance(l2.next_advance_cycle())
    assert l2.cleaning.checks == 1
    assert l2.next_advance_cycle() == l2.cleaning.next_due
