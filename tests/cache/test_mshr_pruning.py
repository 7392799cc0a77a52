"""MSHR pruning that waits for the earliest completion, versus brute force.

:class:`~repro.cache.mshr.MshrFile` skips its prune scan until the
soonest pending fill could have completed.  The oracle below prunes on
every allocation, as the file did before; both must agree on every
answer and counter.
"""

from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.mshr import MshrFile


class BruteForceMshr:
    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.pending: Dict[int, int] = {}
        self.merges = 0
        self.overflows = 0

    def pending_ready(self, block: int, cycle: int) -> Optional[int]:
        ready = self.pending.get(block)
        if ready is None or ready <= cycle:
            return None
        self.merges += 1
        return ready

    def allocate(self, block: int, ready: int, cycle: int) -> None:
        self.pending = {b: r for b, r in self.pending.items() if r > cycle}
        if len(self.pending) >= self.entries and block not in self.pending:
            victim = min(self.pending, key=self.pending.__getitem__)
            del self.pending[victim]
            self.overflows += 1
        self.pending[block] = ready


ops = st.lists(
    st.tuples(
        st.booleans(),            # allocate, else query
        st.integers(0, 12),       # block
        st.integers(0, 40),       # cycle step
        st.integers(0, 120),      # fill latency
    ),
    min_size=1,
    max_size=120,
)


@given(entries=st.integers(1, 6), ops=ops)
@settings(max_examples=300, deadline=None)
def test_matches_brute_force_pruning(entries, ops):
    mshr = MshrFile(entries)
    ref = BruteForceMshr(entries)
    cycle = 0
    for is_alloc, block, step, latency in ops:
        cycle += step
        if is_alloc:
            mshr.allocate(block, cycle + latency, cycle)
            ref.allocate(block, cycle + latency, cycle)
            assert len(mshr) == len(ref.pending)
            assert mshr.as_dict()["occupancy"] == len(ref.pending)
        else:
            assert mshr.pending_ready(block, cycle) == ref.pending_ready(
                block, cycle
            )
        assert mshr.stats.merges == ref.merges
        assert mshr.stats.overflows == ref.overflows
