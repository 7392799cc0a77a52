"""Pinned digests of small reference-mode runs, one per L2 variant.

The reference hot loop (hit-only L1 lookup, one-pass LRU victim, write
buffer, generators) is tuned for speed; these pins hold every simulated
statistic fixed: the sha256 of the whole :class:`RefRunOutput` (counters,
fractions and the registry snapshot) of a 1k warm-up + 4k measured run
for every registered variant and for the plain, unprotected L2.  The
zipf benchmark samples through numpy, so its pins need it.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.policy import available_variants
from repro.core.protected_cache import ProtectionConfig
from repro.experiments.runner import RunConfig, run_refs
from repro.workloads import get_benchmark

CONFIG = RunConfig(n_refs=4000, warmup_refs=1000, seed=0)
#: 256K paper cycles scale to 8K here, so cleaning sweeps run mid-run.
PROTECTION = ProtectionConfig(cleaning_interval=262144)
BENCHMARKS = ("swim", "mesa", "mcf", "parser")
#: ``plain`` is the unprotected L2 (``protection=None``).
PLAIN = "plain"

RUN_DIGESTS = {
    ("mcf", "decay"): (
        "538a56cf82e5da6ebc78c9da53f5ee05c62d00260b90ed800f9812b25ad00f9e"
    ),
    ("mcf", "eager"): (
        "3ba6fb00281290b53dac10ad41aefe9812e912bdec31e0d2bb7a831a5e929940"
    ),
    ("mcf", "no-written-bit"): (
        "ad23634d4e5cd524e17e0b82ca058c131e8fe21a1b1ef07e71d6c3a181ad8e3e"
    ),
    ("mcf", "plain"): (
        "81bc877a030a67d10400352c8750cf8586620111e4deea386a02d27ea33de36c"
    ),
    ("mcf", "silent-write"): (
        "e2c491c21a6313a2f78264a19b628d64c74fb6c2a989d707c559edcb596b4ea2"
    ),
    ("mcf", "standard"): (
        "e0c924511f70464e6389ad31da10319f515aea72167c91904bdf3e172346c314"
    ),
    ("mcf", "wb-compress"): (
        "e68e3e8f16acabcb845e9bbfb600ca643638d81f36ed5be1b1bff237d89c8851"
    ),
    ("mesa", "decay"): (
        "a263f0791ebc8396f6bd40e50cf56d01e6e90a8cea2c1558137103a1a61b42eb"
    ),
    ("mesa", "eager"): (
        "731e69a3d71def7d8a86bee6e312ec5264b87abb36b2413d9a4cbaf55608279a"
    ),
    ("mesa", "no-written-bit"): (
        "b4f87c3956f2bbebcfc003879a13fd8f2e27bc3ead5fe911c9ab61753c8a98b6"
    ),
    ("mesa", "plain"): (
        "d7f41becc30447de5071f9b740c80554742a78ae6d13719e10f204859fda6707"
    ),
    ("mesa", "silent-write"): (
        "da318946bba46f323224e2575e7e321b9d3cb29c52bb6f2b08c06b8cee19137e"
    ),
    ("mesa", "standard"): (
        "b4f87c3956f2bbebcfc003879a13fd8f2e27bc3ead5fe911c9ab61753c8a98b6"
    ),
    ("mesa", "wb-compress"): (
        "c4a80839ca3465e081b497e563bada81d411cfba29144b593d0c7d8cee32e493"
    ),
    ("parser", "decay"): (
        "79e0114b0d4f015365af659ae9cf5ce2b5ceadc7f284f4f2194f83945c9e5371"
    ),
    ("parser", "eager"): (
        "884687f3bcc5855583b54295c2447e54b88620bd999e783a2ac67155d667ae68"
    ),
    ("parser", "no-written-bit"): (
        "a3183446fa3a81e6fe8be63fee5dfb2aa2984eb893afa69355f42c830401493a"
    ),
    ("parser", "plain"): (
        "152c292bf14d1d79559ac14dd86915dfb87a6b3fec954d48cb21a87a2f1ceae5"
    ),
    ("parser", "silent-write"): (
        "825d8ebe7983496ca8019a6ef30dbd5e837a03a98d7727e0139c6c30e05c1f83"
    ),
    ("parser", "standard"): (
        "22e665823c3e14ad2e1387ac605dcd6c3aa38690c247893ca7ea43ae08a57e0c"
    ),
    ("parser", "wb-compress"): (
        "511f00140d72bec32f0428fc6e56905bf3449718b3e8e98c2cb3c9bafcf99d82"
    ),
    ("swim", "decay"): (
        "8ef366c309da26deba24d88ce603817710ea564af9483ed0a7c2c58bd7b3994c"
    ),
    ("swim", "eager"): (
        "8c67dd7876acdb28ed2c575939a1e48df7907d8205a1fba7c91d2028dc900de4"
    ),
    ("swim", "no-written-bit"): (
        "1e3565fb3f7aaf46fc362ae7e0a776bce7723d851dff68d7f831d7c59c724331"
    ),
    ("swim", "plain"): (
        "bd784156db725fa17bc3df0b96222bab941ccfe9a180098cc995998fb20f2443"
    ),
    ("swim", "silent-write"): (
        "43c8be24ace8822e096a8d60090144e84b3ab0fe49c2a362da5fde30c0624009"
    ),
    ("swim", "standard"): (
        "1e3565fb3f7aaf46fc362ae7e0a776bce7723d851dff68d7f831d7c59c724331"
    ),
    ("swim", "wb-compress"): (
        "4eca8e4d56bbf8e95ca68f092f69e88c3a5f9350fba11e8ad1a6484360d756c7"
    ),
}


def run_digest(benchmark: str, variant: str) -> str:
    if variant == PLAIN:
        out = run_refs(benchmark, None, CONFIG)
    else:
        out = run_refs(benchmark, PROTECTION, CONFIG, variant=variant)
    doc = json.dumps(dataclasses.asdict(out), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def test_every_variant_is_pinned():
    pinned = {variant for _, variant in RUN_DIGESTS}
    assert pinned == set(available_variants()) | {PLAIN}
    assert {bench for bench, _ in RUN_DIGESTS} == set(BENCHMARKS)


@pytest.mark.parametrize("bench,variant", sorted(RUN_DIGESTS))
def test_run_matches_pin(bench, variant):
    if get_benchmark(bench).kind == "zipf":
        pytest.importorskip("numpy")
    assert run_digest(bench, variant) == RUN_DIGESTS[bench, variant]
