"""Exact integer draws on a :class:`random.Random` stream.

A leaf module: it imports nothing from ``repro``, so the workload
generators (:mod:`repro.workloads.generators`) and the fault-scenario
samplers (:mod:`repro.reliability.scenarios`) share one helper without
either package loading the other.
"""

from __future__ import annotations


def randbelow(getrandbits, k: int, n: int) -> int:
    """Uniform int in ``[0, n)`` drawing exactly like ``randrange(n)``.

    This is CPython's ``Random._randbelow_with_getrandbits`` rejection
    scheme (``k = n.bit_length()``, unchanged since well before 3.9)
    with the ``randrange`` argument plumbing peeled off.  Consuming the
    identical ``getrandbits`` calls keeps every draw on the historical
    Mersenne-Twister stream, so seeded streams, campaigns and
    checkpoints are unchanged (pinned against ``randrange`` itself in
    ``tests/reliability/test_word_table.py``).

    Like ``randrange``, an empty range (``n <= 0``) raises
    :class:`ValueError`; the check sits in the rejection loop, so an
    accepted first draw costs nothing extra.
    """
    r = getrandbits(k)
    while r >= n:
        if n <= 0:
            raise ValueError(f"empty range for randbelow(): n={n}")
        r = getrandbits(k)
    return r


__all__ = ["randbelow"]
