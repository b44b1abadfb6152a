import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sievelab import brun
from sievelab.brun import sandwich
from sievelab.sieve import (
    SieveSupport,
    SievingSet,
    large_sieve_L,
    large_sieve_bound,
    local_density,
)


def _omega_zero(p):
    return SievingSet(p, 1, frozenset({(0,)}))


def _sifted(X, F, sets, support):
    """Points of X that no support prime sieves out, read off the hit masks;
    their count is checked against the sandwich's exact count."""
    sets_by_prime = {s.p: s for s in sets}
    masks = brun._hit_masks(X, F, [sets_by_prime[p] for p in sorted(support.primes)])
    hit = 0
    for m in masks.values():
        hit |= m
    out = [u for i, u in enumerate(X) if not hit >> i & 1]
    assert len(out) == sandwich(X, F, sets_by_prime, support).exact
    return out


class TestSieveSupport:
    def test_repeated_prime_rejected(self):
        with pytest.raises(ValueError, match="repeated prime"):
            SieveSupport((3, 3), 10)

    def test_prime_at_or_above_Q_rejected(self):
        with pytest.raises(ValueError, match="< Q"):
            SieveSupport((3, 11), 11)


class TestSiftedSet:
    def test_parity_sieve(self):
        X = list(range(1, 11))
        support = SieveSupport((2,), 10)
        out = _sifted(X, lambda t: (t,), [_omega_zero(2)], support)
        assert out == [1, 3, 5, 7, 9]

    def test_empty_support_is_vacuous(self):
        X = list(range(1, 11))
        support = SieveSupport((), 10)
        assert _sifted(X, lambda t: (t,), [], support) == X

    def test_eratosthenes_pattern(self):
        X = list(range(1, 31))
        support = SieveSupport((2, 3, 5), 7)
        sets = [_omega_zero(p) for p in (2, 3, 5)]
        out = _sifted(X, lambda t: (t,), sets, support)
        assert out == [1, 7, 11, 13, 17, 19, 23, 29]

    def test_antitone_in_support(self):
        X = list(range(1, 101))
        small = SieveSupport((2,), 10)
        big = SieveSupport((2, 3), 10)
        s_small = _sifted(X, lambda t: (t,), [_omega_zero(2)], small)
        s_big = _sifted(X, lambda t: (t,), [_omega_zero(2), _omega_zero(3)], big)
        assert set(s_big) <= set(s_small)
        assert len(s_big) < len(s_small)


class TestLocalDensity:
    def test_product_locus_density(self):
        s = SievingSet.from_predicate(5, 2, lambda v: v[1] * (v[0] - v[1]) % 5 == 0)
        assert local_density(s) == Fraction(9, 25)

    def test_empty_and_full(self):
        assert local_density(SievingSet(7, 1, frozenset())) == 0
        full = SievingSet.from_predicate(3, 2, lambda v: True)
        assert local_density(full) == 1


class TestLargeSieveL:
    def test_single_prime(self):
        L = large_sieve_L(SieveSupport((3,), 10), {3: Fraction(1, 3)})
        assert L == Fraction(3, 2)

    def test_two_primes_all_terms(self):
        L = large_sieve_L(
            SieveSupport((2, 3), 10), {2: Fraction(1, 2), 3: Fraction(1, 3)}
        )
        assert L == 3

    def test_norm_cutoff(self):
        L = large_sieve_L(
            SieveSupport((2, 3), 5), {2: Fraction(1, 2), 3: Fraction(1, 3)}
        )
        assert L == Fraction(5, 2)

    def test_degenerate_density(self):
        with pytest.raises(ValueError, match="degenerate"):
            large_sieve_L(SieveSupport((2,), 5), {2: Fraction(1)})

    def _oracle(self, primes, Q, densities):
        """Independent oracle: filter all squarefree integers <= Q."""
        total = Fraction(0)
        pset = set(primes)
        for a in range(1, Q + 1):
            m, fs = a, []
            for p in sorted(pset):
                if m % p == 0:
                    m //= p
                    if m % p == 0:
                        break
                    fs.append(p)
            else:
                if m == 1:
                    term = Fraction(1)
                    for p in fs:
                        term *= densities[p] / (1 - densities[p])
                    total += term
        return total

    def test_oracle_equivalence_random(self):
        rng = random.Random(12345)
        small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        for _ in range(50):
            k = rng.randint(1, 6)
            primes = tuple(sorted(rng.sample(small_primes, k)))
            Q = rng.randint(max(primes) + 1, 10**4)
            densities = {
                p: Fraction(rng.randint(1, p - 1), p) if p > 2 else Fraction(1, 2)
                for p in primes
            }
            support = SieveSupport(primes, Q)
            assert large_sieve_L(support, densities) == self._oracle(primes, Q, densities)

    @given(st.integers(5, 200), st.integers(5, 200))
    def test_monotone_in_Q(self, q1, q2):
        lo, hi = min(q1, q2), max(q1, q2)
        dens = {2: Fraction(1, 2), 3: Fraction(1, 3)}
        L1 = large_sieve_L(SieveSupport((2, 3), lo), dens)
        L2 = large_sieve_L(SieveSupport((2, 3), hi), dens)
        assert L1 <= L2


class TestBound:
    def test_arithmetic(self):
        b = large_sieve_bound(100, 10, 1, Fraction(3, 2))
        assert b == Fraction(20000, 3)

    def test_empty_support(self):
        assert large_sieve_bound(10, 3, 1, Fraction(1)) == 100

    def test_sanity_envelope(self):
        X = list(range(1, 201))
        primes = (2, 3, 5, 7)
        support = SieveSupport(primes, 11)
        sets = {p: _omega_zero(p) for p in primes}
        survivors = sandwich(X, lambda t: (t,), sets, support).exact
        dens = {p: local_density(s) for p, s in sets.items()}
        L = large_sieve_L(support, dens)
        bound = large_sieve_bound(200, 11, 0, L)  # r=0: counting integers
        assert survivors <= 30 * bound
