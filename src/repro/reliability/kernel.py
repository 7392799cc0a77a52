"""The batched injection kernel: a memoized per-word outcome table.

:func:`repro.reliability.model.run_trial` is the campaign's semantic
oracle: it builds a real :class:`~repro.core.policy.LineProtection`
(two codec objects, a full line encode, a full line decode) for every
strike — ~100 µs/trial, which bounds how tight a campaign's confidence
intervals can be (±0.1% needs ~10⁶ trials per scheme).

This module is the fast path.  Three observations make it possible:

1. **Outcomes are payload-independent.**  Every registered code is
   GF(2)-linear, so what a decoder sees is a pure function of the
   injected *error pattern*: decoding the stored line is decoding the
   error against the all-zero codeword, and "repaired == golden" holds
   exactly when every word's residual error is zero.  A strike is
   therefore fully described by its per-word error masks; no payload,
   encode or pooled buffer takes part in classifying it.
2. **A struck word is decoded once per code.**  :class:`_KernelPlan`
   keeps, per line state, a memo from one word's codeword error mask
   (data error in the low 64 bits, check-bit error above) to three
   outcome flags — residual non-zero, corrected, detected — filled on
   a miss from the live recovery codec's ``check(e_data, e_check)``.
   The samplers emit only a few thousand distinct word masks per code
   (single bits, in-word pairs, short bursts, column bits), so after
   warm-up a trial decodes nothing: it looks its words up.
3. **A strike is one more lookup.**  The worst-of reduction of
   :meth:`repro.ecc.codec.LineCodec.check_line` over a strike's words
   is the OR of their flags (detected ≻ residual ≻ corrected ≻ clean),
   and the recovery contract of
   :meth:`repro.core.policy.LineProtection.access` plus the controller
   model of ``model._observe`` (``controller_refetch``, detect-only
   refetch) map those three bits to an outcome — an 8-entry table per
   line state.

**Exact parity with the reference path.**  ``run_trials_batch`` draws
the same random variates in the same order as ``run_trial`` (state,
domain, multiplicity, pooled line index, flip positions, read roll),
and scenario trials draw through the *same* sampler functions — so
under one shard seed the two kernels produce *identical* per-trial
outcomes, not merely the same distribution.  The campaign's
checkpoints are therefore kernel-portable: a file written under
``--kernel reference`` resumes under ``--kernel batch`` bit-identically
(pinned in ``tests/reliability/test_kernel.py``).

Numpy is deliberately not used here: exact parity binds the kernel to
the Mersenne-Twister draw order of :class:`random.Random`, which a
vectorized RNG cannot replay.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional, Tuple

from repro.core.policy import (
    ProtectionDomain,
    ProtectionPolicy,
    RecoveryAction,
    domain_codec,
)
from repro.ecc.codec import WORD_MASK, Codec
from repro.ecc.events import CheckOutcome
from repro.reliability.scenarios import (
    check_error_masks,
    class_cdf,
    data_error_masks,
    draw_burst_length,
    draw_class,
    flips_for,
    get_scenario,
    randbelow,
)
from repro.reliability.model import (
    DOMAIN_ORDER,
    FaultDomain,
    FaultModelConfig,
    TrialOutcome,
    _ACTION_TO_OUTCOME,
    _inject_status,
    _inject_tag,
    domain_bits,
)

#: Pooled lines per :class:`LinePool`.  Part of the determinism
#: contract: both kernels draw line indices as ``randrange(POOL_SIZE)``,
#: so changing this constant changes every seeded campaign.
POOL_SIZE = 256

#: Fixed seed for pool payload generation.  Pool contents are *not*
#: part of the per-trial random stream (outcomes are payload
#: independent); a constant keeps pools identical across processes.
POOL_SEED = 0x9E3779B97F4A7C15


class LinePool:
    """A fixed population of cache-line payloads in one flat buffer.

    ``payload`` holds ``size`` lines back to back.  The reference path
    builds its live lines from them; the batched kernel only replays
    the pool-index draw (outcomes are payload independent).
    """

    _shared: Dict[Tuple[int, int], "LinePool"] = {}

    def __init__(
        self,
        line_bytes: int = 64,
        size: int = POOL_SIZE,
        seed: int = POOL_SEED,
    ) -> None:
        if line_bytes % 8 != 0 or line_bytes <= 0:
            raise ValueError("line_bytes must be a positive multiple of 8")
        if size < 1:
            raise ValueError("pool needs at least one line")
        self.line_bytes = line_bytes
        self.size = size
        #: ``randrange(size)`` draw width (see :func:`randbelow`).
        self.k_size = size.bit_length()
        rng = random.Random(seed)
        self.payload = bytearray(rng.randbytes(size * line_bytes))

    @classmethod
    def shared(cls, line_bytes: int = 64, size: int = POOL_SIZE) -> "LinePool":
        """Process-wide memoised pool (workers build theirs once)."""
        key = (line_bytes, size)
        pool = cls._shared.get(key)
        if pool is None:
            pool = cls._shared[key] = cls(line_bytes=line_bytes, size=size)
        return pool

    def payload_bytes(self, index: int) -> bytes:
        """Copy of pooled line ``index``'s payload (for the slow path)."""
        if not 0 <= index < self.size:
            raise IndexError(f"pool index {index} out of range")
        start = index * self.line_bytes
        return bytes(self.payload[start : start + self.line_bytes])


#: Per-word outcome flags; a strike's flags are the OR over its words.
RESIDUAL, CORRECTED, DETECTED = 1, 2, 4

#: A struck word's memo key is its *codeword* error mask: the data
#: error in the low 64 bits, the check-bit error shifted above them.
CHECK_SHIFT = 64


def _word_flags(codec: Codec, key: int) -> int:
    """Outcome flags of one struck word: the live decode of its error."""
    result = codec.check(key & WORD_MASK, key >> CHECK_SHIFT)
    outcome = result.outcome
    if outcome is CheckOutcome.OK:
        flags = 0
    elif outcome is CheckOutcome.CORRECTED:
        flags = CORRECTED
    else:  # DETECTED; UNDETECTED classifies alike in LineProtection.access
        flags = DETECTED
    if result.data:
        flags |= RESIDUAL
    return flags


def _outcome_table(
    codec: Codec, dirty: bool, config: FaultModelConfig
) -> Tuple[str, ...]:
    """Outcome value of a strike, indexed by the OR of its word flags."""
    table = []
    for flags in range(8):
        if flags & DETECTED:
            if codec.corrects or dirty:
                # Beyond a correcting code's power, or detected on the
                # only up-to-date copy: signalled data loss.
                action = RecoveryAction.DATA_LOSS
            else:
                # Detect-only recovery refetches clean lines
                # unconditionally (independent of controller_refetch).
                action = RecoveryAction.REFETCHED
        elif flags & RESIDUAL:
            action = RecoveryAction.SILENT_CORRUPTION
        elif flags & CORRECTED:
            action = RecoveryAction.CORRECTED_IN_PLACE
        else:
            action = RecoveryAction.CLEAN_READ
        if (
            config.controller_refetch
            and not dirty
            and action is RecoveryAction.DATA_LOSS
        ):
            # The controller knows the line is clean and refetches it.
            outcome = TrialOutcome.REFETCHED
        else:
            outcome = _ACTION_TO_OUTCOME[action]
        table.append(outcome.value)
    return tuple(table)


#: The check column each recovery domain decodes through.
_COLUMN_OF = {ProtectionDomain.PARITY: "parity", ProtectionDomain.ECC: "ecc"}


class _KernelPlan:
    """Per-(policy, config) precomputation shared by every trial.

    Everything keyed by line state is a 2-tuple indexed by the
    ``dirty`` bool itself, so the trial loops never hash an enum.
    """

    __slots__ = (
        "words", "k_line", "k_words", "classes", "cdf", "cum", "total",
        "parity_bits", "ecc_bits", "recovery", "codec", "memo", "outcome_of",
    )

    def __init__(self, policy: ProtectionPolicy, config: FaultModelConfig):
        self.words = config.line_bytes // 8
        self.k_line = config.line_bytes.bit_length()
        self.k_words = self.words.bit_length()
        self.classes = get_scenario(config.scenario).resolve(
            config.double_bit_fraction
        )
        self.cdf = class_cdf(self.classes)
        codecs = config.codecs()
        #: The live codec guarding each check column (registry defaults
        #: unless the config overrides the ECC code).
        column_codec = {
            "parity": domain_codec(ProtectionDomain.PARITY, codecs),
            "ecc": domain_codec(ProtectionDomain.ECC, codecs),
        }
        cum, total, parity_bits, ecc_bits = [], [], [], []
        recovery, codec, outcome_of = [], [], []
        for dirty in (False, True):
            weights = domain_bits(policy, dirty, config)
            # Same float accumulation order as model._choose_domain, so
            # the roll-vs-cumulative comparisons are bit-identical.
            acc, state_cum = 0.0, []
            for domain in DOMAIN_ORDER:
                acc += weights[domain]
                state_cum.append(acc)
            cum.append(tuple(state_cum))
            total.append(float(sum(weights[d] for d in DOMAIN_ORDER)))
            domains = policy.domains_for(dirty)
            parity_bits.append(
                column_codec["parity"].check_bits_per_word
                if ProtectionDomain.PARITY in domains
                else 0
            )
            ecc_bits.append(
                column_codec["ecc"].check_bits_per_word
                if ProtectionDomain.ECC in domains
                else 0
            )
            column = _COLUMN_OF[policy.recovery_domain(dirty, codecs)]
            recovery.append(column)
            codec.append(column_codec[column])
            outcome_of.append(_outcome_table(column_codec[column], dirty, config))
        self.cum = tuple(cum)
        self.total = tuple(total)
        self.parity_bits = tuple(parity_bits)
        self.ecc_bits = tuple(ecc_bits)
        #: The check column the recovery code decodes; stale check bits
        #: of the other column are never consulted (flags 0).
        self.recovery = tuple(recovery)
        self.codec = tuple(codec)
        #: ``{codeword error mask: flags}`` per line state.  Plain dicts
        #: of ints stay untracked by the cyclic GC, so a warm memo adds
        #: nothing to a collection's traversal.
        self.memo: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
        self.outcome_of = tuple(outcome_of)

    def flags(self, dirty: bool, key: int) -> int:
        """Flags of one struck word, decoded and memoized on a miss.

        Keys are per-word codeword masks only, never whole strikes, so
        a memo is bounded by the samplers' mask alphabet (~1-2k entries
        per code).  The trial loops inline the hit path.
        """
        memo = self.memo[dirty]
        flags = memo.get(key)
        if flags is None:
            flags = memo[key] = _word_flags(self.codec[dirty], key)
        return flags


#: Plans kept per process.  A warm plan holds a few thousand memo
#: entries (~300 kB under low-voltage), and a long-lived service sees a
#: new config per measured dirty fraction, so the oldest plan is
#: dropped beyond this; a campaign or autotune grid uses ~12.
MAX_PLANS = 64

_PLANS: Dict[Tuple[str, FaultModelConfig], _KernelPlan] = {}
#: Serialises eviction: the job service runs campaigns on threads.
_PLANS_LOCK = threading.Lock()


def _plan_for(policy: ProtectionPolicy, config: FaultModelConfig) -> _KernelPlan:
    key = (policy.name, config)
    plan = _PLANS.get(key)
    if plan is None:
        with _PLANS_LOCK:
            plan = _PLANS.get(key)
            if plan is None:
                if len(_PLANS) >= MAX_PLANS:
                    del _PLANS[next(iter(_PLANS))]
                plan = _PLANS[key] = _KernelPlan(policy, config)
    return plan


def _data_trial(
    pool: LinePool,
    plan: _KernelPlan,
    dirty: bool,
    flips: int,
    config: FaultModelConfig,
    rng: random.Random,
) -> str:
    # Identical draw order to model._inject_data: line index, first
    # flip, optional second flip (same word), then the read roll.
    getrandbits = rng.getrandbits
    randbelow(getrandbits, pool.k_size, pool.size)  # outcome-inert
    byte_idx = randbelow(getrandbits, plan.k_line, config.line_bytes)
    err = 1 << (byte_idx % 8 * 8 + randbelow(getrandbits, 4, 8))
    if flips > 1:
        err ^= 1 << (
            randbelow(getrandbits, 4, 8) * 8 + randbelow(getrandbits, 4, 8)
        )
    if not dirty and rng.random() >= config.read_fraction:
        return "masked"
    flags = plan.memo[dirty].get(err)
    if flags is None:
        flags = plan.flags(dirty, err)
    return plan.outcome_of[dirty][flags]


def _check_trial(
    pool: LinePool,
    plan: _KernelPlan,
    dirty: bool,
    flips: int,
    config: FaultModelConfig,
    rng: random.Random,
) -> str:
    # Identical draw order to model._inject_check: line index, struck
    # word, column roll, flip bits (ECC column only), read roll.
    getrandbits = rng.getrandbits
    randbelow(getrandbits, pool.k_size, pool.size)  # outcome-inert
    parity_bits = plan.parity_bits[dirty]
    ecc_bits = plan.ecc_bits[dirty]
    randbelow(getrandbits, plan.k_words, plan.words)  # struck word
    strike_ecc = rng.random() * (parity_bits + ecc_bits) < ecc_bits
    if strike_ecc:
        k = ecc_bits.bit_length()
        check_err = 1 << randbelow(getrandbits, k, ecc_bits)
        if flips > 1:
            check_err ^= 1 << randbelow(getrandbits, k, ecc_bits)
    if not dirty and rng.random() >= config.read_fraction:
        return "masked"
    if ("ecc" if strike_ecc else "parity") != plan.recovery[dirty]:
        return plan.outcome_of[dirty][0]  # stale column, never consulted
    # One parity bit per word: a second upset bit lands in the
    # neighbouring word's column entry, whose flags are the same.
    key = (check_err if strike_ecc else 1) << CHECK_SHIFT
    flags = plan.memo[dirty].get(key)
    if flags is None:
        flags = plan.flags(dirty, key)
    return plan.outcome_of[dirty][flags]


def _run_trials_scenario(
    config: FaultModelConfig,
    n: int,
    rng: random.Random,
    pool: LinePool,
    sample_limit: int,
    plan: _KernelPlan,
) -> Tuple[Dict[str, Dict[str, int]], List[Tuple[int, str, bool, str]]]:
    """The batched kernel's generic scenario path.

    Calls the *same* sampler functions as
    :func:`repro.reliability.model._run_trial_scenario`, with the same
    rng, in the same order — bit-identical trial streams by
    construction rather than by draw replication.  Classification then
    looks the strike's per-word error masks up in the plan's memos.
    """
    outcomes: Dict[str, Dict[str, int]] = {}
    samples: List[Tuple[int, str, bool, str]] = []
    rand = rng.random
    getrandbits = rng.getrandbits
    k_size, size = pool.k_size, pool.size
    dirty_fraction = config.dirty_fraction
    read_fraction = config.read_fraction
    line_bytes = config.line_bytes
    words = plan.words
    per_data, per_tag, per_status, per_check = (
        outcomes.setdefault(domain.value, {}) for domain in DOMAIN_ORDER
    )
    value_of = {out: out.value for out in TrialOutcome}
    classes, cdf = plan.classes, plan.cdf
    flags_of = plan.flags
    states = tuple(zip(
        plan.cum, plan.total, plan.parity_bits, plan.ecc_bits,
        plan.recovery, plan.memo, plan.outcome_of,
    ))
    for trial in range(n):
        dirty = rand() < dirty_fraction
        (
            cum, total, parity_bits, ecc_bits, recovery, memo, outcome_of,
        ) = states[dirty]
        roll = rand() * total
        cls = draw_class(rng, classes, cdf)
        length = draw_burst_length(rng, cls)
        if roll < cum[0]:
            domain_value, per_domain = "data", per_data
            randbelow(getrandbits, k_size, size)  # outcome-inert
            masks = data_error_masks(rng, cls, length, line_bytes)
            if not dirty and rand() >= read_fraction:
                key = "masked"
            else:
                flags = 0
                for mask in masks.values():
                    word = memo.get(mask)
                    if word is None:
                        word = flags_of(dirty, mask)
                    flags |= word
                key = outcome_of[flags]
        elif roll < cum[1]:
            domain_value, per_domain = "tag", per_tag
            key = value_of[
                _inject_tag(dirty, flips_for(cls, length), config, rng)
            ]
        elif roll < cum[2]:
            domain_value, per_domain = "status", per_status
            key = value_of[
                _inject_status(dirty, flips_for(cls, length), config, rng)
            ]
        else:
            domain_value, per_domain = "check", per_check
            randbelow(getrandbits, k_size, size)  # outcome-inert
            column, cmasks = check_error_masks(
                rng, cls, length, words, parity_bits, ecc_bits
            )
            if not dirty and rand() >= read_fraction:
                key = "masked"
            elif column != recovery:
                key = outcome_of[0]  # stale column, never consulted
            else:
                flags = 0
                for mask in cmasks.values():
                    mask <<= CHECK_SHIFT
                    word = memo.get(mask)
                    if word is None:
                        word = flags_of(dirty, mask)
                    flags |= word
                key = outcome_of[flags]
        per_domain[key] = per_domain.get(key, 0) + 1
        if len(samples) < sample_limit:
            samples.append((trial, domain_value, dirty, key))
    for domain_value in tuple(outcomes):
        if not outcomes[domain_value]:
            del outcomes[domain_value]
    return outcomes, samples


def run_trials_batch(
    policy: ProtectionPolicy,
    config: FaultModelConfig,
    n: int,
    rng: random.Random,
    pool: Optional[LinePool] = None,
    sample_limit: int = 0,
) -> Tuple[Dict[str, Dict[str, int]], List[Tuple[int, str, bool, str]]]:
    """Run ``n`` trials against pooled lines; aggregate outcome counts.

    Returns ``(outcomes, samples)`` in exactly the shapes
    :func:`repro.reliability.campaign.run_shard` builds: outcome counts
    keyed ``{domain.value: {outcome.value: count}}`` plus the first
    ``sample_limit`` per-trial tuples for event tracing.  Consumes
    ``rng`` in the same order as ``n`` calls of
    :func:`repro.reliability.model.run_trial`, so the two kernels are
    interchangeable under one seed.
    """
    if pool is None:
        pool = LinePool.shared(config.line_bytes)
    if pool.line_bytes != config.line_bytes:
        raise ValueError("pool line size does not match the fault model")
    plan = _plan_for(policy, config)
    if config.scenario != "nominal" or config.ecc_codec != "secded":
        # Correlated scenarios and non-default codecs take the generic
        # sampler path; below is the historical nominal trial stream.
        return _run_trials_scenario(config, n, rng, pool, sample_limit, plan)
    outcomes: Dict[str, Dict[str, int]] = {}
    samples: List[Tuple[int, str, bool, str]] = []
    rand = rng.random
    dirty_fraction = config.dirty_fraction
    double_bit_fraction = config.double_bit_fraction
    # Hoisted per-domain count dicts and enum .value strings: the enum
    # descriptor lookups are measurable at ~300 ns/trial budgets.
    per_data = outcomes.setdefault(FaultDomain.DATA.value, {})
    per_tag = outcomes.setdefault(FaultDomain.TAG.value, {})
    per_status = outcomes.setdefault(FaultDomain.STATUS.value, {})
    per_check = outcomes.setdefault(FaultDomain.CHECK.value, {})
    value_of = {out: out.value for out in TrialOutcome}
    states = tuple(zip(plan.cum, plan.total))
    for trial in range(n):
        # Draw order per trial (the contract with run_trial): dirty
        # roll, domain roll, flips roll, then the injector's own draws.
        dirty = rand() < dirty_fraction
        cum, total = states[dirty]
        roll = rand() * total
        flips = 2 if rand() < double_bit_fraction else 1
        if roll < cum[0]:
            domain_value, per_domain = "data", per_data
            key = _data_trial(pool, plan, dirty, flips, config, rng)
        elif roll < cum[1]:
            domain_value, per_domain = "tag", per_tag
            key = value_of[_inject_tag(dirty, flips, config, rng)]
        elif roll < cum[2]:
            domain_value, per_domain = "status", per_status
            key = value_of[_inject_status(dirty, flips, config, rng)]
        else:
            domain_value, per_domain = "check", per_check
            key = _check_trial(pool, plan, dirty, flips, config, rng)
        per_domain[key] = per_domain.get(key, 0) + 1
        if len(samples) < sample_limit:
            samples.append((trial, domain_value, dirty, key))
    # Shards never saw some domain: drop its empty dict so aggregates
    # match the reference path's lazily-created mapping exactly.
    for domain_value in tuple(outcomes):
        if not outcomes[domain_value]:
            del outcomes[domain_value]
    return outcomes, samples


__all__ = [
    "POOL_SEED",
    "POOL_SIZE",
    "LinePool",
    "run_trials_batch",
]
