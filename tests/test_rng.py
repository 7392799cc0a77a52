"""The exact ``randrange`` draw shared by generators and samplers."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.reliability import scenarios
from repro.rng import randbelow


def test_scenarios_reexports_the_helper():
    assert scenarios.randbelow is randbelow


def bounded(getrandbits, limit=1000):
    """``getrandbits`` that fails instead of letting a rejection loop spin."""
    calls = 0

    def draw(k):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise AssertionError("randbelow kept rejecting")
        return getrandbits(k)

    return draw


@pytest.mark.parametrize("n", [0, -1, -64])
def test_empty_range_raises_like_randrange(n):
    rng = random.Random(0)
    with pytest.raises(ValueError):
        rng.randrange(n)
    with pytest.raises(ValueError, match="empty range"):
        randbelow(bounded(rng.getrandbits), n.bit_length(), n)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    granule=st.integers(min_value=1, max_value=4096),
)
def test_stepped_draw_matches_randrange(seed, granule):
    """``8 * randbelow`` is the zipf read offset ``randrange(0, g, 8)``."""
    ours, theirs = random.Random(seed), random.Random(seed)
    n = (granule + 7) // 8
    for _ in range(20):
        assert 8 * randbelow(ours.getrandbits, n.bit_length(), n) == (
            theirs.randrange(0, granule, 8)
        )
    assert ours.getstate() == theirs.getstate()
