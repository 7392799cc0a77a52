"""The batched kernel's memoized per-word outcome table.

The batched kernel decodes each distinct struck word once per code and
looks every later occurrence up (``repro.reliability.kernel``).  The
contracts pinned here:

1. **Identity at every corner, warm or cold.**  For every registered
   scenario × codec × scheme, at both line-state corners and both
   controller models, batch ≡ reference: outcomes, samples and final
   Mersenne-Twister state.  Each cell runs twice in one process, with
   configs that share a codec but differ in ``controller_refetch``
   interleaved, so a memo leaking across plans or line states fails.
2. **Memory is bounded**: each memo by the samplers' per-word mask
   alphabet (not by the number of distinct strikes), the plan cache by
   ``kernel.MAX_PLANS``.
3. **A warm memo decodes nothing.**
4. **The shared draw helper is ``randrange``-exact.**  Both kernels draw
   through it, so the identity tests above cannot see a mismatch; this
   compares it against ``random.Random.randrange`` directly.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import available_codecs, get_codec
from repro.reliability import kernel
from repro.reliability.campaign import shard_seed
from repro.reliability.kernel import LinePool, run_trials_batch
from repro.reliability.model import (
    SCHEMES,
    FaultModelConfig,
    run_trial,
    scheme_policy,
)
from repro.reliability.scenarios import available_scenarios, randbelow

TRIALS = 200
SAMPLES = 32
#: Generous ceiling on one memo: the samplers emit ~1-2k distinct word
#: masks per code; keying by whole strikes would blow far past it.
MEMO_BOUND = 8192


def _reference_shard(policy, config, n, seed):
    rng = random.Random(seed)
    pool = LinePool.shared(config.line_bytes)
    outcomes, samples = {}, []
    for trial in range(n):
        outcome, domain, dirty = run_trial(policy, config, rng, pool)
        per_domain = outcomes.setdefault(domain.value, {})
        per_domain[outcome.value] = per_domain.get(outcome.value, 0) + 1
        if len(samples) < SAMPLES:
            samples.append((trial, domain.value, dirty, outcome.value))
    return outcomes, samples, rng.getstate()


def _batch_shard(policy, config, n, seed):
    rng = random.Random(seed)
    outcomes, samples = run_trials_batch(
        policy, config, n, rng, sample_limit=SAMPLES
    )
    return outcomes, samples, rng.getstate()


class TestIdentityAtEveryCorner:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("codec", available_codecs())
    @pytest.mark.parametrize("scenario", available_scenarios())
    def test_batch_matches_reference_warm_and_cold(
        self, scenario, codec, scheme
    ):
        policy = scheme_policy(scheme)
        seed = shard_seed(14, f"{scenario}/{codec}/{scheme}", 0)
        configs = [
            FaultModelConfig(
                scenario=scenario,
                ecc_codec=codec,
                dirty_fraction=dirty_fraction,
                controller_refetch=controller_refetch,
            )
            for dirty_fraction in (0.0, 1.0)
            for controller_refetch in (False, True)
        ]
        expected = {
            config: _reference_shard(policy, config, TRIALS, seed)
            for config in configs
        }
        for run in ("cold", "warm"):
            for config in configs:
                got = _batch_shard(policy, config, TRIALS, seed)
                assert got == expected[config], (
                    f"{run} run: dirty_fraction={config.dirty_fraction} "
                    f"controller_refetch={config.controller_refetch}"
                )


class TestMemo:
    def test_memo_is_bounded_by_the_word_mask_alphabet(self):
        for scenario in ("low-voltage", "rowcol"):
            config = FaultModelConfig(scenario=scenario, dirty_fraction=0.5)
            run_trials_batch(
                scheme_policy("non-uniform"), config, 50_000,
                random.Random(7),
            )
        sizes = [
            len(memo) for plan in kernel._PLANS.values() for memo in plan.memo
        ]
        assert max(sizes) > 0
        assert max(sizes) <= MEMO_BOUND

    def test_plan_cache_is_bounded(self):
        policy = scheme_policy("uniform-ecc")
        for i in range(kernel.MAX_PLANS + 8):
            config = FaultModelConfig(dirty_fraction=i / 1000)
            run_trials_batch(policy, config, 1, random.Random(i))
        assert len(kernel._PLANS) == kernel.MAX_PLANS
        assert (policy.name, config) in kernel._PLANS

    def test_plan_cache_holds_under_threads(self):
        # Service jobs share the plan cache from worker threads; with
        # more configs than MAX_PLANS every thread keeps evicting.
        policy = scheme_policy("non-uniform")
        configs = [
            FaultModelConfig(scenario="burst-heavy", dirty_fraction=i / 500)
            for i in range(kernel.MAX_PLANS * 2)
        ]
        expected = {
            config: run_trials_batch(policy, config, 50, random.Random(3))
            for config in configs
        }
        errors, mismatches = [], []

        def worker(offset):
            try:
                for config in configs[offset:] + configs[:offset]:
                    got = run_trials_batch(policy, config, 50, random.Random(3))
                    if got != expected[config]:
                        mismatches.append(config)
            except Exception as err:  # surfaced by the assertion below
                errors.append(err)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i * 16,))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        assert len(kernel._PLANS) <= kernel.MAX_PLANS

    def test_warm_memo_decodes_nothing(self, monkeypatch):
        policy = scheme_policy("non-uniform")
        config = FaultModelConfig(scenario="burst-heavy", ecc_codec="dected")
        first = run_trials_batch(policy, config, 5000, random.Random(11))
        calls = []
        for name in ("parity", "dected"):
            cls = type(get_codec(name))
            original = cls.check

            def counting(self, word, check, _original=original):
                calls.append((word, check))
                return _original(self, word, check)

            monkeypatch.setattr(cls, "check", counting)
        again = run_trials_batch(policy, config, 5000, random.Random(11))
        assert again == first
        assert calls == []


class TestRandbelow:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=2**20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_randrange_value_and_state(self, n, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        k = n.bit_length()
        for _ in range(8):  # several draws walk the rejection loop
            assert randbelow(ours.getrandbits, k, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()
