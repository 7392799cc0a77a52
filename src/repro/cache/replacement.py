"""Replacement policies for set-associative caches."""

from __future__ import annotations

import abc
import random
from typing import List

from repro.cache.line import CacheLine


class ReplacementPolicy(abc.ABC):
    """Chooses a victim way within one set.

    Invalid ways are always preferred; policies only order valid lines.
    """

    @abc.abstractmethod
    def choose_victim(self, ways: List[CacheLine]) -> int:
        """Return the index of the way to evict (or fill, if invalid)."""

    def on_access(self, line: CacheLine, stamp: int) -> None:
        """Notify the policy that ``line`` was touched at ``stamp``."""
        line.lru_stamp = stamp

    @staticmethod
    def _first_invalid(ways: List[CacheLine]) -> int:
        for i, line in enumerate(ways):
            if not line.valid:
                return i
        return -1


class LruPolicy(ReplacementPolicy):
    """Evict the least-recently-used valid line."""

    def choose_victim(self, ways: List[CacheLine]) -> int:
        # One pass: the first invalid way, else the first minimum stamp.
        victim, oldest = 0, ways[0].lru_stamp
        i = 0
        for line in ways:
            if not line.valid:
                return i
            if line.lru_stamp < oldest:
                victim, oldest = i, line.lru_stamp
            i += 1
        return victim


class FifoPolicy(ReplacementPolicy):
    """Evict the earliest-filled valid line, ignoring later touches."""

    def choose_victim(self, ways: List[CacheLine]) -> int:
        idx = self._first_invalid(ways)
        if idx >= 0:
            return idx
        victim, oldest = 0, ways[0].fifo_stamp
        for i in range(1, len(ways)):
            if ways[i].fifo_stamp < oldest:
                victim, oldest = i, ways[i].fifo_stamp
        return victim


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random valid line (seeded for reproducibility)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose_victim(self, ways: List[CacheLine]) -> int:
        idx = self._first_invalid(ways)
        if idx >= 0:
            return idx
        return self._rng.randrange(len(ways))


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``random``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return cls(seed=seed)
    return cls()
