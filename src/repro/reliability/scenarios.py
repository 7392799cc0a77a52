"""Correlated-fault scenario packs: strike classes beyond Bernoulli.

The nominal fault model treats a strike as one flipped bit with a
scalar ``double_bit_fraction`` tail.  Field data (HARP's on-die ECC
profiles, Cerberus' cross-layer co-design argument — see PAPERS.md)
says real upsets also arrive as *adjacent-bit bursts* along a particle
track and as *row/column-correlated* multi-bit events, and that the
right protection code depends on which of those dominates.  This module
makes that a first-class axis: a **scenario** is a named mixture of
:class:`FaultClass` strike shapes plus a raw-BER scaling knob, selected
per campaign with ``repro reliability --scenario NAME``.

Determinism contract
--------------------
Both injection kernels (``reference`` and ``batch``) draw a scenario
trial through the *same* sampler functions below, in the same order:
dirty roll → domain roll → class roll (:func:`draw_class`) → burst
length (:func:`draw_burst_length`, burst classes only) → the
domain-specific position draws (:func:`data_error_masks` /
:func:`check_error_masks`).  Sharing the samplers — rather than
replicating their draw sequences — is what keeps the two kernels
bit-identical under one shard seed for every scenario, the same
property the nominal model pins.  Checkpoint digests fold the scenario
name in (``nominal`` keeps the historical digest), so shards from
different scenarios can never be spliced together.

Every integer position is drawn through :func:`randbelow` (defined in
the leaf module :mod:`repro.rng`, re-exported here), which consumes
exactly the ``getrandbits`` calls ``rng.randrange(n)`` would (CPython's
rejection scheme) without its argument plumbing: the samplers stay on
the historical Mersenne-Twister stream while running both kernels
faster.

The masks returned are *error patterns*: ``{word index: 64-bit mask}``
for data strikes, ``(column, {word index: column mask})`` for check
strikes.  The reference kernel XORs them into a live
:class:`~repro.core.policy.LineProtection`; the batched kernel looks
each word's mask up in its memoized per-word outcome table (GF(2)
linearity makes the outcome a function of the mask alone).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.rng import randbelow

#: Strike-shape kinds a :class:`FaultClass` may take.
CLASS_KINDS = ("single", "word2", "burst", "column")


@dataclass(frozen=True)
class FaultClass:
    """One strike shape with its mixture weight.

    ``single``
        One flipped bit (the nominal model's base case).
    ``word2``
        Two random bits of one 64-bit codeword — the historical
        ``double_bit_fraction`` tail (the second draw may cancel the
        first, exactly as in the nominal model).
    ``burst``
        ``L`` *adjacent* bits along the array's bit order, ``L`` drawn
        per strike from ``burst_pmf``; bursts wrap and may straddle a
        word (or check-column) boundary — the MBU shape interleaving
        and symbol codes are designed against.
    ``column``
        The same bit offset upset in ``span_words`` consecutive words —
        a column/bitline failure correlated *across* codewords, the
        shape per-word codes cannot see as multi-bit.
    """

    kind: str
    weight: float
    #: ``((length, probability), ...)`` — burst classes only.
    burst_pmf: Tuple[Tuple[int, float], ...] = ()
    #: Words a column strike spans — column classes only.
    span_words: int = 4

    def __post_init__(self) -> None:
        if self.kind not in CLASS_KINDS:
            raise ValueError(
                f"unknown fault class kind {self.kind!r}; "
                f"known: {list(CLASS_KINDS)}"
            )
        if self.weight < 0.0:
            raise ValueError("fault class weight must be non-negative")
        if self.kind == "burst":
            if not self.burst_pmf:
                raise ValueError("burst class needs a burst_pmf")
            total = 0.0
            for length, probability in self.burst_pmf:
                if length < 2:
                    raise ValueError("burst lengths must be >= 2")
                if probability < 0.0:
                    raise ValueError("burst probabilities must be >= 0")
                total += probability
            if abs(total - 1.0) > 1e-9:
                raise ValueError("burst_pmf probabilities must sum to 1")
        if self.kind == "column" and self.span_words < 2:
            raise ValueError("column class needs span_words >= 2")


@dataclass(frozen=True)
class Scenario:
    """A named strike mixture plus its raw-rate scaling.

    ``ber_scale`` multiplies the campaign's ``raw_fit_per_mbit`` at
    estimate time (low-voltage operation raises the raw upset rate
    without changing per-strike shapes much); like the other
    FIT-quoting knobs it is *excluded* from checkpoint digests.
    ``from_double_bit_fraction`` marks the nominal scenario, whose
    class mixture is derived from the model's ``double_bit_fraction``
    instead of a fixed tuple.
    """

    name: str
    description: str
    classes: Tuple[FaultClass, ...] = ()
    ber_scale: float = 1.0
    from_double_bit_fraction: bool = False

    def __post_init__(self) -> None:
        if self.ber_scale <= 0.0:
            raise ValueError("ber_scale must be positive")
        if not self.from_double_bit_fraction:
            total = sum(cls.weight for cls in self.classes)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"scenario {self.name!r} class weights must sum to 1"
                )

    def resolve(
        self, double_bit_fraction: float
    ) -> Tuple[FaultClass, ...]:
        """The concrete class mixture for one model configuration."""
        if self.from_double_bit_fraction:
            return (
                FaultClass("single", 1.0 - double_bit_fraction),
                FaultClass("word2", double_bit_fraction),
            )
        return self.classes


# -- the scenario registry ----------------------------------------------------

_SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> None:
    """Register a scenario preset (idempotent re-register by name)."""
    if not scenario.name:
        raise ValueError("scenario name must be non-empty")
    _SCENARIOS[scenario.name] = scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {available_scenarios()}"
        ) from None


def available_scenarios() -> List[str]:
    """Registered scenario names, ``nominal`` first then alphabetical."""
    return sorted(_SCENARIOS, key=lambda name: (name != "nominal", name))


register_scenario(Scenario(
    name="nominal",
    description=(
        "The paper's Bernoulli model: single strikes with the "
        "double_bit_fraction same-word tail.  Bit-identical to the "
        "pre-scenario trial stream."
    ),
    from_double_bit_fraction=True,
))

register_scenario(Scenario(
    name="burst-heavy",
    description=(
        "Deep-submicron MBU regime: nearly half of strikes are "
        "adjacent-bit bursts of 2-6 cells along a particle track."
    ),
    classes=(
        FaultClass("single", 0.50),
        FaultClass("burst", 0.45, burst_pmf=(
            (2, 0.50), (3, 0.25), (4, 0.15), (6, 0.10),
        )),
        FaultClass("word2", 0.05),
    ),
))

register_scenario(Scenario(
    name="rowcol",
    description=(
        "Row/column-correlated faults: bursts along a wordline plus "
        "bitline strikes repeating one bit offset across 4 consecutive "
        "words of the subarray."
    ),
    classes=(
        FaultClass("single", 0.40),
        FaultClass("burst", 0.30, burst_pmf=((2, 0.60), (4, 0.40))),
        FaultClass("column", 0.30, span_words=4),
    ),
))

register_scenario(Scenario(
    name="low-voltage",
    description=(
        "Near-threshold operation: 4x the raw upset rate and a heavier "
        "multi-bit tail (weakened cells upset in clusters)."
    ),
    ber_scale=4.0,
    classes=(
        FaultClass("single", 0.35),
        FaultClass("burst", 0.45, burst_pmf=(
            (2, 0.35), (3, 0.25), (4, 0.20), (6, 0.10), (8, 0.10),
        )),
        FaultClass("word2", 0.20),
    ),
))


# -- shared samplers (the cross-kernel determinism contract) ------------------


def class_cdf(classes: Tuple[FaultClass, ...]) -> List[float]:
    """Cumulative class weights, in the same float-accumulation order
    both kernels compare rolls against (cf. ``model._choose_domain``)."""
    acc, cdf = 0.0, []
    for cls in classes:
        acc += cls.weight
        cdf.append(acc)
    return cdf


def draw_class(
    rng: random.Random,
    classes: Tuple[FaultClass, ...],
    cdf: List[float],
) -> FaultClass:
    """One strike-class draw (always exactly one ``rng.random()``).

    The first class whose cumulative bound exceeds the roll — the same
    ``roll < bound`` scan as ``model._choose_domain``, as one bisection.
    """
    index = bisect_right(cdf, rng.random() * cdf[-1])
    if index < len(classes):
        return classes[index]
    return classes[-1]  # pragma: no cover - float edge


def draw_burst_length(rng: random.Random, cls: FaultClass) -> int:
    """Burst-length draw; non-burst classes consume *no* rng state."""
    if cls.kind != "burst":
        return 0
    roll = rng.random()
    acc = 0.0
    for length, probability in cls.burst_pmf:
        acc += probability
        if roll < acc:
            return length
    return cls.burst_pmf[-1][0]  # pragma: no cover - float edge


def flips_for(cls: FaultClass, length: int) -> int:
    """Upset multiplicity for the tag/status arrays (no bit adjacency
    there worth modelling: the arrays are a few dozen bits wide)."""
    if cls.kind == "single":
        return 1
    if cls.kind == "word2":
        return 2
    if cls.kind == "burst":
        return length
    return cls.span_words


def data_error_masks(
    rng: random.Random,
    cls: FaultClass,
    length: int,
    line_bytes: int,
) -> Dict[int, int]:
    """Error pattern of one data-array strike: ``{word index: mask}``.

    Draw order per kind (fixed — both kernels replay it):

    * ``single``: byte, bit — the nominal model's own two draws;
    * ``word2``: byte, bit, second byte-in-word, second bit;
    * ``burst``: one start-bit draw; ``length`` adjacent bits of the
      line's little-endian bit order, wrapping at the line end;
    * ``column``: bit offset, start word; the offset repeats in
      ``span_words`` consecutive words (wrapping).
    """
    getrandbits = rng.getrandbits
    kind = cls.kind
    if kind == "single" or kind == "word2":
        byte_idx = randbelow(getrandbits, line_bytes.bit_length(), line_bytes)
        mask = 1 << (byte_idx % 8 * 8 + randbelow(getrandbits, 4, 8))
        if kind == "word2":
            mask ^= 1 << (
                randbelow(getrandbits, 4, 8) * 8
                + randbelow(getrandbits, 4, 8)
            )
        return {byte_idx // 8: mask}
    if kind == "burst":
        total = line_bytes * 8
        start = randbelow(getrandbits, total.bit_length(), total)
        masks: Dict[int, int] = {}
        for i in range(length):
            position = (start + i) % total
            word = position // 64
            masks[word] = masks.get(word, 0) | 1 << (position % 64)
        return masks
    words = line_bytes // 8
    offset = randbelow(getrandbits, 7, 64)
    start_word = randbelow(getrandbits, words.bit_length(), words)
    span = min(cls.span_words, words)
    return {(start_word + i) % words: 1 << offset for i in range(span)}


def check_error_masks(
    rng: random.Random,
    cls: FaultClass,
    length: int,
    words: int,
    parity_bits: int,
    ecc_bits: int,
) -> Tuple[str, Dict[int, int]]:
    """Error pattern of one check-array strike.

    Returns ``(column, {word index: column mask})`` with ``column`` in
    ``("parity", "ecc")``.  As in the nominal model, the struck column
    is chosen in proportion to its stored bits (one ``rng.random()``
    after the word draw), and a 1-bit-per-word column never draws a
    position.  Bursts run along the column's bit order across
    consecutive words; column strikes repeat one bit offset down
    ``span_words`` words of the chosen column.
    """
    getrandbits = rng.getrandbits
    word = randbelow(getrandbits, words.bit_length(), words)
    strike_ecc = rng.random() * (parity_bits + ecc_bits) < ecc_bits
    column = "ecc" if strike_ecc else "parity"
    col_bits = ecc_bits if strike_ecc else parity_bits
    k_col = col_bits.bit_length()
    kind = cls.kind
    if kind == "single":
        mask = (
            1 << randbelow(getrandbits, k_col, col_bits) if col_bits > 1 else 1
        )
        return column, {word: mask}
    if kind == "word2":
        if col_bits > 1:
            mask = 1 << randbelow(getrandbits, k_col, col_bits)
            mask ^= 1 << randbelow(getrandbits, k_col, col_bits)
            return column, {word: mask}
        # One check bit per word: the second upset bit of the strike
        # lands in the neighbouring word's column entry.
        return column, {word: 1, (word + 1) % words: 1}
    if kind == "burst":
        total = words * col_bits
        start = word * col_bits
        if col_bits > 1:
            start += randbelow(getrandbits, k_col, col_bits)
        masks: Dict[int, int] = {}
        for i in range(length):
            position = (start + i) % total
            struck = position // col_bits
            masks[struck] = masks.get(struck, 0) | 1 << (
                position % col_bits
            )
        return column, masks
    offset = randbelow(getrandbits, k_col, col_bits) if col_bits > 1 else 0
    span = min(cls.span_words, words)
    return column, {
        (word + i) % words: 1 << offset for i in range(span)
    }


__all__ = [
    "CLASS_KINDS",
    "FaultClass",
    "Scenario",
    "available_scenarios",
    "check_error_masks",
    "class_cdf",
    "data_error_masks",
    "draw_burst_length",
    "draw_class",
    "flips_for",
    "get_scenario",
    "randbelow",
    "register_scenario",
]
