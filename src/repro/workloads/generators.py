"""Building-block memory-reference generators.

Each generator yields an endless stream of :class:`MemRef` — one data
memory reference plus ``gap``, the number of non-memory instructions
that precede it (so a cache-only run can advance its cycle clock and a
CPU run can interleave compute instructions).

The four archetypes cover the SPEC2000 behaviours the paper's results
hinge on:

``streaming``
    Sequential sweeps over arrays much larger than the cache (swim,
    applu, mgrid): lines live briefly, so long cleaning intervals never
    catch them.
``blocked``
    Generational tile reuse (mesa, apsi, gap): a tile is filled, worked
    on, then abandoned *dirty* inside a cache-resident working set —
    exactly the dead-line population cleaning reclaims.
``pointer``
    Pointer chasing over a huge footprint (mcf).
``zipf``
    Skewed reuse over a cache-sized set (parser, vpr, twolf): hot lines
    keep their written bit set and survive cleaning; cold dirty lines
    are reclaimed.
"""

from __future__ import annotations

import bisect
import random
from typing import Callable, Iterator, NamedTuple, Tuple

from repro.rng import randbelow


class MemRef(NamedTuple):
    """One data reference: write flag, byte address, preceding non-mem insts."""

    is_write: bool
    addr: int
    gap: int


#: Builds a :class:`MemRef` from its field tuple in one C call: the
#: generators' hot loops skip the namedtuple's Python-level ``__new__``
#: (``_make`` does the same) and yield the identical object.
_new = tuple.__new__


def _no_gap(lambd: float) -> float:
    return 0.0


def _gap_draw(
    rng: random.Random, mean_gap: float
) -> Tuple[Callable[[float], float], float]:
    """Bind one stream's gap draw: ``(draw, lambd)``.

    A generator evaluates ``min(int(draw(lambd)), 64)`` per reference —
    ``rng.expovariate(1 / mean_gap)`` capped at 64, geometric with the
    requested mean (cheap and adequately bursty) — with the method
    lookup and the division done once per stream.  A non-positive mean
    gives 0 without touching ``rng``.
    """
    if mean_gap <= 0:
        return _no_gap, 1.0
    return rng.expovariate, 1.0 / mean_gap


def streaming_stream(
    rng: random.Random,
    ws_bytes: int,
    store_ratio: float = 0.3,
    arrays: int = 3,
    stride: int = 8,
    base: int = 1 << 30,
    mean_gap: float = 1.5,
) -> Iterator[MemRef]:
    """Round-robin sequential sweeps over ``arrays`` equal arrays.

    Each position is visited in every array per step; a fixed fraction
    of the arrays (the last ``round(arrays*store_ratio)``) are written,
    matching the read-read-write structure of stencil codes.
    """
    array_bytes = max(stride, ws_bytes // max(arrays, 1))
    writers = min(arrays, round(arrays * store_ratio))
    if store_ratio > 0:
        writers = max(1, writers)
    targets = [
        (idx >= arrays - writers, base + idx * (1 << 26))
        for idx in range(arrays)
    ]
    draw, lambd = _gap_draw(rng, mean_gap)
    offset = 0
    while True:
        for is_write, a_base in targets:
            yield _new(MemRef, (
                is_write, a_base + offset, min(int(draw(lambd)), 64)
            ))
        offset += stride
        if offset >= array_bytes:
            offset = 0


def blocked_stream(
    rng: random.Random,
    ws_bytes: int,
    tile_bytes: int = 16 * 1024,
    reuse: int = 4,
    store_ratio: float = 0.5,
    stride: int = 8,
    base: int = 1 << 31,
    mean_gap: float = 1.5,
) -> Iterator[MemRef]:
    """Generational tile processing within a bounded working set.

    A tile is swept ``reuse`` times — reads on the first pass, a
    read/write mix afterwards — then the generator moves to the next
    tile and never writes the old one again.  Inside a cache-resident
    working set this leaves behind exactly the write-dead dirty lines
    the paper's cleaning logic targets.
    """
    n_tiles = max(1, ws_bytes // tile_bytes)
    refs_per_pass = max(1, tile_bytes // stride)
    tile_cursor = 0
    draw, lambd = _gap_draw(rng, mean_gap)
    uniform = rng.random
    while True:
        # Mostly march through the working set in order (so the whole
        # footprint is covered quickly) with occasional random revisits.
        if uniform() < 0.1:
            tile = rng.randrange(n_tiles)
        else:
            tile = tile_cursor
            tile_cursor = (tile_cursor + 1) % n_tiles
        tile_base = base + tile * tile_bytes
        for pass_no in range(reuse):
            for i in range(refs_per_pass):
                is_write = pass_no > 0 and uniform() < store_ratio
                yield _new(MemRef, (
                    is_write, tile_base + i * stride,
                    min(int(draw(lambd)), 64),
                ))


def pointer_stream(
    rng: random.Random,
    ws_bytes: int,
    store_ratio: float = 0.12,
    node_bytes: int = 64,
    base: int = 3 << 30,
    mean_gap: float = 2.0,
) -> Iterator[MemRef]:
    """Random pointer chase over ``ws_bytes`` of node storage (mcf-like).

    Each step reads one node; occasionally the node is also updated.
    """
    n_nodes = max(1, ws_bytes // node_bytes)
    k_nodes = n_nodes.bit_length()
    getrandbits, uniform = rng.getrandbits, rng.random
    draw, lambd = _gap_draw(rng, mean_gap)
    while True:
        # ``randbelow`` draws exactly what ``rng.randrange(n_nodes)`` would.
        addr = base + randbelow(getrandbits, k_nodes, n_nodes) * node_bytes
        yield _new(MemRef, (False, addr, min(int(draw(lambd)), 64)))
        if uniform() < store_ratio:
            yield _new(MemRef, (True, addr + 8, min(int(draw(lambd)), 64)))


def zipf_stream(
    rng: random.Random,
    ws_bytes: int,
    alpha: float = 0.9,
    store_ratio: float = 0.35,
    fresh_write_fraction: float = 0.8,
    granule_bytes: int = 64,
    base: int = 5 << 30,
    mean_gap: float = 1.5,
    batch: int = 4096,
) -> Iterator[MemRef]:
    """Zipf-skewed reads plus allocation-style writes (parser/vpr/twolf).

    Reads follow a Zipf popularity law over the working set's blocks.
    Writes split two ways: a ``fresh_write_fraction`` share goes to a
    bump-allocator cursor marching through the working set — blocks
    written once and then only read (the write-dead generational
    population the cleaning logic reclaims) — while the remainder
    rewrites popular blocks (which therefore keep their written bits set
    and rightly survive cleaning).
    """
    n = max(1, ws_bytes // granule_bytes)
    try:  # The [fast] extra, imported on first use to keep start-up lean.
        import numpy as np
    except ImportError:  # pragma: no cover - environment-dependent
        np = None
    if np is not None:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-alpha)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        # Shuffle rank->block so hot blocks are scattered across sets.
        perm = np.random.RandomState(rng.randrange(2**31)).permutation(n)
        np_rng = np.random.RandomState(rng.randrange(2**31))

        def _draw_picks():
            # ``tolist`` hands the loop plain ints, not numpy scalars.
            return perm[
                np.searchsorted(cdf, np_rng.random_sample(batch))
            ].tolist()

    else:
        # Stdlib fallback (no [fast] extra): same popularity law via
        # bisect over the cumulative weights.  Deterministic per seed,
        # but a different stream than the numpy sampler — installs with
        # and without numpy produce different (equally valid) traces.
        weights_py = [float(rank) ** (-alpha) for rank in range(1, n + 1)]
        cdf_py, acc = [], 0.0
        for weight in weights_py:
            acc += weight
            cdf_py.append(acc)
        cdf_py = [value / acc for value in cdf_py]
        perm_py = list(range(n))
        random.Random(rng.randrange(2**31)).shuffle(perm_py)
        py_rng = random.Random(rng.randrange(2**31))

        def _draw_picks():
            return [
                perm_py[
                    min(bisect.bisect_left(cdf_py, py_rng.random()), n - 1)
                ]
                for _ in range(batch)
            ]

    slots_per_block = max(1, granule_bytes // 8)
    # A read's offset, ``rng.randrange(0, granule_bytes, 8)``, is
    # ``8 * randrange(n_slots)``; ``randbelow`` draws exactly that.
    n_slots = (granule_bytes + 7) // 8
    k_slots = n_slots.bit_length()
    getrandbits, uniform = rng.getrandbits, rng.random
    draw, lambd = _gap_draw(rng, mean_gap)
    alloc_slot = 0  # bump-allocator position, in 8-byte slots
    while True:
        for block in _draw_picks():
            if uniform() < store_ratio:
                if uniform() < fresh_write_fraction:
                    # Write-once allocation: fill the working set slot by
                    # slot, so the writes within a block coalesce in the
                    # write buffer the way a real allocator's do.
                    target_block, slot = divmod(alloc_slot, slots_per_block)
                    alloc_slot = (alloc_slot + 1) % (n * slots_per_block)
                    addr = base + target_block * granule_bytes + slot * 8
                else:
                    addr = base + block * granule_bytes
                yield _new(MemRef, (True, addr, min(int(draw(lambd)), 64)))
            else:
                addr = (
                    base
                    + block * granule_bytes
                    + 8 * randbelow(getrandbits, k_slots, n_slots)
                )
                yield _new(MemRef, (False, addr, min(int(draw(lambd)), 64)))
