import gc
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sievelab.brun import good_reduction_census
from sievelab.config import (_prime_divisors, coprime_rows, default_elliptic_family,
                              primes_below, smallest_prime_factors, squarefree_products)
from sievelab.heights import (
    _rational_roots,
    affine_line_points,
    count_projective,
    enumerate_projective,
    ProjectivePoint,
)
from sievelab.polynomials import Poly

from oracles import SCHANUEL_C1


def height(p):
    """Absolute height over Q: max |coordinate| of the primitive representative."""
    return max(abs(c) for c in p.coords)


def brute_projective(r, x):
    """The canonical points of P^r(Q) of height <= x by brute force: every
    tuple of the box in lexicographic order, kept when its gcd is 1 and its
    first nonzero coordinate is positive."""
    out = []
    for coords in itertools.product(range(-x, x + 1), repeat=r + 1):
        first = next((c for c in coords if c), 0)
        if first > 0 and math.gcd(*coords) == 1:
            out.append(coords)
    return out


class TestCoprimeRows:
    @pytest.mark.parametrize("r, xmax", [(1, 30), (2, 6), (3, 3)])
    def test_matches_gcd_loop(self, r, xmax):
        # every prefix c = 0 or with first nonzero entry > 0, in lexicographic
        # order, with the bits of the b that make (c : b) canonical
        for x in range(1, xmax + 1):
            expected = []
            for c in itertools.product(range(-x, x + 1), repeat=r):
                if next((v for v in c if v), 1) > 0:
                    row = sum(1 << b + x for b in range(-x, x + 1)
                              if math.gcd(*c, b) == 1 and (any(c) or b > 0))
                    expected.append((c, row))
            assert expected[0] == ((0,) * r, 1 << x + 1)
            assert list(coprime_rows(r, x)) == expected

    @pytest.mark.parametrize("x", [1, 2, 7, 30, 97])
    def test_consumers_count_the_same_points(self, x):
        # the sandwich's point list, the census's affine points plus the point
        # at infinity, and goodred with no support prime (Q = 2)
        num, _ = affine_line_points(x, Poly.const(1, 1))
        goodred = good_reduction_census(default_elliptic_family(), x, 2)
        assert goodred.support == ()
        assert len(enumerate_projective(1, x)) == 1 + len(num) == goodred.count


class TestHeight:
    def test_height_of_fraction(self):
        assert height(ProjectivePoint((3, 2))) == 3


class TestEnumeration:
    @pytest.mark.parametrize("r, xmax", [(1, 40), (2, 8), (3, 4)])
    def test_matches_brute_force(self, r, xmax):
        for x in range(1, xmax + 1):
            assert [p.coords for p in enumerate_projective(r, x)] == brute_projective(r, x)

    def test_matches_brute_force_at_sandwich_size(self):
        assert [p.coords for p in enumerate_projective(1, 300)] == brute_projective(1, 300)

    def test_matches_brute_force_past_four_prime_heads(self):
        # the last head 210 = 2*3*5*7 has four primes; 125 = 5^3 and 128 = 2^7 are
        # prime powers; (c0, 0) is a point for c0 = 1 only
        assert [p.coords for p in enumerate_projective(1, 210)] == brute_projective(1, 210)
        for x in range(1, 13):
            assert [p.coords for p in enumerate_projective(2, x)] == brute_projective(2, x)

    def test_points_share_coordinate_ints(self):
        # one int object per coordinate value in [-x, x]: no per-point ints
        ids = {id(c) for p in enumerate_projective(1, 300) for c in p.coords}
        assert len(ids) <= 2 * 300 + 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint((0, 0))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            enumerate_projective(1, 20)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_small_counts(self):
        # P^1(Q): x=1 gives {0, inf, 1, -1}; x=2 adds {2, -2, 1/2, -1/2}
        assert count_projective(1, 1) == 4
        assert count_projective(1, 2) == 8
        assert count_projective(1, 10) == 128

    def test_lex_order_and_uniqueness(self):
        pts = enumerate_projective(1, 5)
        assert len(set(pts)) == len(pts)
        coords = [p.coords for p in pts]
        assert coords == sorted(coords)

    def test_heights_bounded(self):
        assert all(height(p) <= 7 for p in enumerate_projective(1, 7))

    @pytest.mark.parametrize("r, xmax", [(1, 40), (2, 8), (3, 4)])
    def test_closed_form_count_matches_enumeration(self, r, xmax):
        for x in range(1, xmax + 1):
            assert count_projective(r, x) == len(enumerate_projective(r, x))

    def test_count_rejects_bad_args(self):
        with pytest.raises(ValueError):
            count_projective(0, 5)
        with pytest.raises(ValueError):
            count_projective(1, 0)

    def test_affine_counts(self):
        # x=1: {0, 1, -1}
        num, den = affine_line_points(1, Poly.const(1, 1))
        assert list(zip(num.tolist(), den.tolist())) == [(-1, 1), (0, 1), (1, 1)]

    def test_affine_bad_locus(self):
        t = Poly.var(1, 0)
        num, den = affine_line_points(2, t * (1 - t))
        assert list(zip(num.tolist(), den.tolist())) == [(-2, 1), (-1, 1), (2, 1), (-1, 2), (1, 2)]

    @given(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), min_size=1, max_size=3),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(any),
        st.integers(1, 12),
    )
    def test_affine_matches_fraction_enumeration(self, factors, extra, x):
        # linear factors (d t - n) put rational roots in and out of the box;
        # the extra factor adds coefficients without (usually) adding roots
        t = Poly.var(1, 0)
        bad = Poly(1, {(k,): c for k, c in enumerate(extra)})
        for n, d in factors:
            bad = bad * (d * t - n)
        num, den = affine_line_points(x, bad)
        points = [(n, d) for d in range(1, x + 1) for n in range(-x, x + 1)
                  if math.gcd(n, d) == 1 and bad(Fraction(n, d)) != 0]
        assert list(zip(num.tolist(), den.tolist())) == points

    def test_zero_bad_locus_rejected(self):
        with pytest.raises(ValueError):
            affine_line_points(2, Poly.const(1, 0))

    @given(
        st.integers(1, 12).flatmap(lambda x: st.tuples(st.just(x), st.lists(
            st.tuples(st.integers(-x, x), st.integers(1, x)), max_size=4))),
        st.integers(0, 3),
        st.integers(-6, 6).filter(bool),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(any),
    )
    def test_rational_roots_match_fraction_oracle(self, box_and_roots, k, lead, extra):
        x, planted = box_and_roots
        # planted roots n/d in the box (negative ones too), a factor t^k and a
        # leading coefficient other than 1; the integer test against the
        # rational one, over the same candidates in the same order
        t = Poly.var(1, 0)
        poly = lead * t**k * Poly(1, {(i,): c for i, c in enumerate(extra)})
        for n, d in planted:
            poly = poly * (d * t - n)
        low, top = poly.terms[min(poly.terms)], poly.terms[max(poly.terms)]
        oracle = [(0, 1)] if min(poly.terms) > (0,) else []
        oracle += [(s, d) for d in range(1, x + 1) if top % d == 0
                   for n in range(1, x + 1) if low % n == 0 and math.gcd(n, d) == 1
                   for s in (n, -n) if poly(Fraction(s, d)) == 0]
        roots = _rational_roots(poly, x)
        assert roots == oracle
        # and every root in the box, by the rational root theorem
        box = {(n, d) for d in range(1, x + 1) for n in range(-x, x + 1)
               if math.gcd(n, d) == 1 and poly(Fraction(n, d)) == 0}
        assert set(roots) == box
        assert {(n // math.gcd(n, d), d // math.gcd(n, d)) for n, d in planted} <= box


class TestPrimeSieve:
    def test_smallest_prime_factors(self):
        spf = smallest_prime_factors(500)
        assert spf[:2] == [0, 1]
        for k in range(2, 501):
            assert spf[k] == min(p for p in range(2, k + 1) if k % p == 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 500, 10001])
    def test_sieve_matches_sympy(self, n):
        from sympy import primefactors, primerange

        spf = smallest_prime_factors(n)
        assert spf[:2] == [0, 1] and len(spf) == max(n, 1) + 1
        assert spf[2:] == [min(primefactors(k)) for k in range(2, n + 1)]
        assert primes_below(n) == list(primerange(2, n))

    def test_prime_divisors_match_sympy(self):
        from sympy import primefactors

        spf = smallest_prime_factors(10**4)
        for n in [*range(2000), 9973, 9999, 10**4]:
            assert _prime_divisors(n) == _prime_divisors(n, spf) == primefactors(n), n

    def test_tiny_bounds(self):
        assert smallest_prime_factors(1) == [0, 1]
        assert list(squarefree_products(primes_below(2), 1)) == [(1, ())]


class TestSquarefreeWalk:
    @pytest.mark.parametrize("primes", [[], [7], [13, 2, 7, 3], [31, 5, 17], primes_below(38)],
                             ids=["empty", "one", "unsorted", "unsorted-3", "twelve"])
    @pytest.mark.parametrize("bound", [None, 1, "below", 6, 30, 500, 30030, 10**7])
    def test_matches_combinations(self, primes, bound):
        if bound == "below":  # one below the smallest prime
            bound = min(primes, default=2) - 1
        walk = list(squarefree_products(primes, bound))
        brute = [(math.prod(c), c) for k in range(len(primes) + 1)
                 for c in itertools.combinations(sorted(primes), k)
                 if bound is None or math.prod(c) <= bound]
        assert walk[0] == (1, ())
        assert sorted(walk) == sorted(brute)
        assert len({d for d, _ in walk}) == len(walk)
        assert all(d == math.prod(f) and list(f) == sorted(f) for d, f in walk)
        # depth first: the factor tuples in lexicographic order
        assert [f for _, f in walk] == sorted(f for _, f in walk)

    def test_matches_sympy_mobius(self):
        from sympy import mobius as sympy_mobius

        walk = dict(squarefree_products(primes_below(501), 500))
        for d in range(1, 501):
            mu = int(sympy_mobius(d))
            assert (d in walk) == (mu != 0)
            if d in walk:
                assert (-1) ** len(walk[d]) == mu


class TestSchanuel:
    # |B(x)| on P^1(Q) against Schanuel's leading term (12 / pi^2) x^2
    def test_x_500_within_5_percent(self):
        count = count_projective(1, 500)
        assert count == 304464
        assert abs(count / (SCHANUEL_C1 * 500**2) - 1) <= 0.05

    def test_deviation_normalization(self):
        main = SCHANUEL_C1 * 100**2
        assert abs(count_projective(1, 100) - main) <= 10 * 100 * math.log(100)
