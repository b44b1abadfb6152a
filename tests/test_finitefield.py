"""The integer-code field model against sympy's galoistools and brute counts."""

import itertools
from collections import Counter

import numpy as np
import pytest
from sympy import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem

from sievelab.chebotarev import ffield_frobenius
from sievelab.curves import default_elliptic_family, default_genus2_family
from sievelab.finitefield import ExtField, field

from oracles import ap_count, genus2_counts, reduction_type, specialize

SMALL_FIELDS = [(2, 3), (3, 3), (5, 2), (7, 2)]


def _dense(code, q, n):
    """sympy's dense form (highest degree first, no leading zeros) of a code."""
    digits = [code // q**i % q for i in range(n)]
    while digits and digits[-1] == 0:
        digits.pop()
    return digits[::-1]


def _code(dense, q):
    return sum(c * q**i for i, c in enumerate(reversed(dense)))


def _z_order(h, q):
    """Multiplicative order of z modulo the dense polynomial h, or None when
    z is not a unit; walks the powers of z."""
    one, z, power = [1], gf_rem([1, 0], h, q, ZZ), gf_rem([1, 0], h, q, ZZ)
    for k in range(1, q ** (len(h) - 1)):
        if power == one:
            return k
        power = gf_rem(gf_mul(power, z, q, ZZ), h, q, ZZ)
    return None


class TestArithmetic:
    @pytest.mark.parametrize("q, n", SMALL_FIELDS)
    def test_mul_add_match_galoistools_on_every_pair(self, q, n):
        fld = field(q, n)
        h = list(fld.modulus[::-1])
        for x, y in itertools.product(range(q**n), repeat=2):
            fx, fy = _dense(x, q, n), _dense(y, q, n)
            assert fld.mul(x, y) == _code(gf_rem(gf_mul(fx, fy, q, ZZ), h, q, ZZ), q)
            assert fld.add(x, y) == _code(gf_add(fx, fy, q, ZZ), q)

    @pytest.mark.parametrize("q, n", SMALL_FIELDS + [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
                                            (2, 4), (5, 3), (7, 3), (11, 2), (5, 4)])
    def test_modulus_is_first_primitive(self, q, n):
        fld = field(q, n)
        h = fld.modulus
        assert len(h) == n + 1 and h[-1] == 1
        # exp walks every nonzero code once, log inverts it and parks 0 past two periods
        assert sorted(fld.exp) == list(range(1, q**n))
        assert all(fld.log[c] == k for k, c in enumerate(fld.exp))
        assert fld.log[0] == 2 * (q**n - 1)
        assert _z_order(list(h[::-1]), q) == q**n - 1
        # no lexicographically earlier monic polynomial is primitive
        for tail in itertools.product(range(q), repeat=n):
            if tail == h[:-1]:
                break
            assert _z_order([1] + list(tail[::-1]), q) != q**n - 1

    @pytest.mark.parametrize("q, n", SMALL_FIELDS + [(3, 1), (13, 1), (5, 3), (11, 2)])
    def test_sqrt_counts_match_bincount_of_squares(self, q, n):
        fld = field(q, n)
        squares = [fld.mul(y, y) for y in range(q**n)]
        assert np.array_equal(fld.sqrt_counts(), np.bincount(squares, minlength=q**n))

    @pytest.mark.parametrize("q, n", [(5, 1), (7, 3), (11, 2)])
    def test_add_matches_digitwise_formula_on_every_pair(self, q, n):
        # the per-digit formula that the spread tables replaced
        fld = field(q, n)
        codes = np.arange(q**n)
        a, b = np.meshgrid(codes, codes)
        digitwise = sum((a // w + b // w) % q * w for w in q ** np.arange(n))
        assert np.array_equal([[fld.add(x, y) for x in codes.tolist()] for y in codes.tolist()],
                              digitwise)
        assert fld.add(int(a[-1, 1]), int(b[-1, 1])) == digitwise[-1, 1]

    def test_fields_are_memoised_and_read_only(self):
        fld = field(5, 2)
        assert field(5, 2) is fld
        with pytest.raises(TypeError):
            fld.sqrt_counts()[0] = 5

    @pytest.mark.parametrize("q", [0, 1, 4, 9, 15])
    def test_non_prime_q_rejected(self, q):
        with pytest.raises(ValueError):
            ExtField(q, 2)


class TestPointCounts:
    @pytest.mark.parametrize("q, n", SMALL_FIELDS + [(11, 2)])
    def test_batched_count_matches_per_row_calls(self, q, n):
        """List coefficients, mixed with int ones as in [B, A, 0, 1], count
        each row as its own scalar call would; in the last two, rows share
        (c_1, .., c_d) and differ in c_0."""
        fld = field(q, n)
        rng = np.random.default_rng(q * 10 + n)
        T = 203
        B, A, C = (rng.integers(0, fld.order, T).tolist() for _ in range(3))
        few = rng.integers(0, fld.order, 3)[rng.integers(0, 3, T)].tolist()
        for coeffs in ([B, A, 0, 1], [C, 0, A, 1, B, 1], [B, few, 0, 1], [C, few, few, 1]):
            batched = fld.affine_points(coeffs)
            assert type(batched) is list and len(batched) == T
            assert all(type(v) is int for v in batched)
            scalar = {}  # one scalar call per distinct row
            for i, got in enumerate(batched):
                row = tuple(c if isinstance(c, int) else c[i] for c in coeffs)
                if row not in scalar:
                    scalar[row] = fld.affine_points(list(row))
                assert got == scalar[row]

    def test_batched_count_edge_shapes(self):
        fld = field(7, 2)
        out = fld.affine_points([[], [], 0, 1])
        assert out == []
        # int coefficients give a Python int, as before batching
        scalar = fld.affine_points([3, 2, 0, 1])
        assert type(scalar) is int
        assert fld.affine_points([[3], 2, 0, 1]) == [scalar]

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_extension_classes_follow_the_frobenius_recurrence(self, t):
        """a_{q^(k+1)} = a_q a_{q^k} - q a_{q^(k-1)}, with a_1 = 2, a_q = ap_count;
        l = 101 exceeds 2 * 2 * 5^2, so a mod l determines a."""
        fam, q, l = default_elliptic_family(), 5, 101
        a = [2, ap_count(specialize(fam, (t,)), q)]
        for _ in range(3):
            a.append(a[1] * a[-1] - q * a[-2])
        for n in (1, 2, 3, 4):
            # the base field F_5 sits in F_{5^n} as the constant codes
            cls = ffield_frobenius(fam, field(q, n), [(t,)], l)
            assert cls == [(a[n] % l, q**n % l)]

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_genus2_counts_match_brute_count(self, p):
        """n1 and n2 against a count of (x, y) with y^2 = f(x), in sympy
        arithmetic over F_p[z]/(z^2 - nu), nu the least nonresidue mod p."""
        nu = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)
        h = [1, 0, (-nu) % p]
        elements = [_dense(code, p, 2) for code in range(p * p)]

        def horner(coeffs, x):
            v = []
            for c in reversed(coeffs):
                v = gf_add(gf_rem(gf_mul(v, x, p, ZZ), h, p, ZZ), [c] if c else [], p, ZZ)
            return tuple(v)

        roots2 = Counter(tuple(gf_rem(gf_mul(y, y, p, ZZ), h, p, ZZ)) for y in elements)
        roots1 = Counter(y * y % p for y in range(p))
        g2 = default_genus2_family()
        specs = (specialize(g2, t) for t in itertools.permutations(range(2, 12), 3))
        good = list(itertools.islice((s for s in specs if reduction_type(s, p) == "good"), 3))
        assert len(good) == 3
        for s in good:
            coeffs = [c.numerator * pow(c.denominator, -1, p) % p for c in s.quintic]
            n1 = 1 + sum(roots1[sum(c * x**k for k, c in enumerate(coeffs)) % p] for x in range(p))
            n2 = 1 + sum(roots2[horner(coeffs, x)] for x in elements)
            assert genus2_counts(s, p) == (n1, n2)
