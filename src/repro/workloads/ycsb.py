"""YCSB key-distribution generators (workload C is 100% GETs).

Implements the generators the Memcached experiment needs (§7.3 /
Figure 8): uniform, the standard YCSB scrambled-zipfian with θ = 0.99,
and hotspot (a hot fraction of the keyspace receiving a hot fraction
of the traffic — the paper uses 1% of keys at 90% and 99%).

Every generator draws from an explicitly seeded ``random.Random`` —
either its own (``seed=``) or one threaded in by the caller (``rng=``),
so multi-generator experiments can share a single deterministic stream.
The process-global ``random`` module is never touched (the
``determinism`` rule of ``python -m repro analyze`` enforces this).
"""

from __future__ import annotations

import random


class UniformGenerator:
    """Keys uniform over [0, n)."""

    def __init__(self, n, seed=11, rng=None):
        self.n = n
        self._rng = rng or random.Random(seed)

    def next(self):
        return self._rng.randrange(self.n)

    def keys(self, count):
        return [self.next() for _ in range(count)]


class ZipfianGenerator:
    """YCSB's ZipfianGenerator with FNV scrambling.

    The scramble spreads the popular items across the keyspace so
    popularity is not correlated with key order — exactly what YCSB's
    ``ScrambledZipfianGenerator`` does.
    """

    FNV_OFFSET = 0xCBF29CE484222325
    FNV_PRIME = 0x100000001B3
    #: ``FNV_PRIME ** k`` modulo 2**64, for k = 0..8: a zero byte's
    #: FNV-1 step is one multiply by the prime, so the zero high bytes
    #: of a value fold into one multiply.
    FNV_PRIME_POWERS = tuple(
        pow(prime, k, 1 << 64) for prime in (FNV_PRIME,) for k in range(9)
    )

    def __init__(self, n, theta=0.99, seed=13, scrambled=True, rng=None):
        if n < 2:
            raise ValueError("need at least two items")
        self.n = n
        self.theta = theta
        self.scrambled = scrambled
        self._rng = rng or random.Random(seed)

        self.zetan = self._zeta(n, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (
            (1.0 - (2.0 / n) ** (1.0 - theta))
            / (1.0 - self.zeta2 / self.zetan)
        )

    @staticmethod
    def _zeta(n, theta):
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self):
        u = self._rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5 ** self.theta:
            rank = 1
        else:
            rank = int(self.n * ((self.eta * u) - self.eta + 1.0)
                       ** self.alpha)
            rank = min(rank, self.n - 1)
        if not self.scrambled:
            return rank
        return self._fnv(rank) % self.n

    @classmethod
    def _fnv(cls, value):
        """64-bit FNV-1 over the eight low bytes of ``value``, least
        significant first; the zero bytes above its highest set byte
        cost one multiply in all."""
        value &= 0xFFFFFFFFFFFFFFFF
        h = cls.FNV_OFFSET
        steps = 8
        while value:
            h = ((h ^ (value & 0xFF)) * cls.FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
            value >>= 8
            steps -= 1
        return (h * cls.FNV_PRIME_POWERS[steps]) & 0xFFFFFFFFFFFFFFFF

    def keys(self, count):
        return [self.next() for _ in range(count)]


class HotspotGenerator:
    """``hot_opn_fraction`` of operations hit ``hot_set_fraction`` of keys.

    The paper's hotspot configurations: 1% of the entries as the hot
    set with an access probability of 90% or 99%.
    """

    def __init__(self, n, hot_set_fraction=0.01, hot_opn_fraction=0.9,
                 seed=17, rng=None):
        self.n = n
        self.hot_keys = max(1, int(n * hot_set_fraction))
        self.hot_opn_fraction = hot_opn_fraction
        self._rng = rng or random.Random(seed)

    def next(self):
        if self._rng.random() < self.hot_opn_fraction:
            return self._rng.randrange(self.hot_keys)
        return self.hot_keys + self._rng.randrange(self.n - self.hot_keys)

    def keys(self, count):
        return [self.next() for _ in range(count)]


def make_generator(name, n, seed=23, rng=None):
    """Factory for the four Figure 8 distributions.

    Pass ``rng`` to thread one shared seeded stream through several
    generators (e.g. a warm-up and a measured phase that must not
    re-correlate when one of them changes its draw count).
    """
    if name == "uniform":
        return UniformGenerator(n, seed=seed, rng=rng)
    if name == "zipf":
        return ZipfianGenerator(n, theta=0.99, seed=seed, rng=rng)
    if name == "hotspot90":
        return HotspotGenerator(n, hot_opn_fraction=0.90, seed=seed,
                                rng=rng)
    if name == "hotspot99":
        return HotspotGenerator(n, hot_opn_fraction=0.99, seed=seed,
                                rng=rng)
    raise ValueError(f"unknown distribution {name!r}")


def zipf_hit_estimate(theta, n, cache_fraction):
    """Analytic cache-hit estimate for a zipfian stream (sanity checks):
    the probability mass of the top ``cache_fraction`` of items."""
    cutoff = max(1, int(n * cache_fraction))
    num = sum(1.0 / (i ** theta) for i in range(1, cutoff + 1))
    den = sum(1.0 / (i ** theta) for i in range(1, n + 1))
    return num / den
