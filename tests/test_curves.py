from fractions import Fraction

import pytest

from sievelab.curves import (
    BAD_SENTINEL,
    ap_count,
    ap_count_pointloop,
    ap_table,
    default_elliptic_family,
    default_genus2_family,
    frobenius_invariants,
    genus2_counts,
    reduction_type,
    specialize,
    surjectivity_verdict,
    CurveFamily,
)
from sievelab.groups import closure, gl2_elements, mat_inv, mat_mul
from sievelab.polynomials import Poly


class TestSpecialize:
    def test_default_family_at_2(self):
        fam = default_elliptic_family()
        s = specialize(fam, (2,))
        assert s.A == -6 and s.B == 4
        assert s.delta == 6912
        assert s.j == 3456

    def test_rational_parameter(self):
        fam = default_elliptic_family()
        s = specialize(fam, (Fraction(1, 2),))
        assert s.delta == -54

    def test_bad_locus_rejected(self):
        fam = default_elliptic_family()
        for t in (0, 1):
            with pytest.raises(ValueError, match="etale"):
                specialize(fam, (t,))

    def test_reduction_types(self):
        fam = default_elliptic_family()
        s = specialize(fam, (2,))
        assert reduction_type(s, 5) == "good"
        assert reduction_type(s, 2) == "bad"
        assert reduction_type(s, 3) == "bad"

    def test_roundtrip_serialization(self):
        fam = default_elliptic_family()
        assert CurveFamily.from_json(fam.to_json()) == fam
        g2 = default_genus2_family()
        assert CurveFamily.from_json(g2.to_json()) == g2


def _fixed_curve(a, b):
    """Constant family y^2 = x^3 + ax + b for oracle tests."""
    A = Poly.const(1, a)
    B = Poly.const(1, b)
    disc = -16 * (4 * a**3 + 27 * b**2)
    bad = Poly.const(1, 1)  # no bad parameter locus; reduction handles primes
    fam = CurveFamily(1, A, B, (), bad, frozenset({2}))
    return specialize(fam, (0,))


class TestApCount:
    def test_known_zero_traces(self):
        # y^2 = x^3 + x over F_3 and y^2 = x^3 + 1 over F_5 are supersingular
        assert ap_count(_fixed_curve(1, 0), 3) == 0
        assert ap_count(_fixed_curve(0, 1), 5) == 0

    def test_two_oracles_agree(self):
        fam = default_elliptic_family()
        s = specialize(fam, (2,))
        for p in (5, 7, 11, 13):
            assert ap_count(s, p) == ap_count_pointloop(s, p)

    def test_hasse_bound(self):
        fam = default_elliptic_family()
        s = specialize(fam, (3,))
        for p in (5, 7, 11, 13, 17, 19):
            if reduction_type(s, p) == "good":
                a = ap_count(s, p)
                assert a * a <= 4 * p

    def test_bad_reduction_rejected(self):
        fam = default_elliptic_family()
        s = specialize(fam, (2,))
        with pytest.raises(ValueError, match="bad reduction"):
            ap_count(s, 2)


class TestApTable:
    def test_matches_pointwise(self):
        fam = default_elliptic_family()
        table = ap_table(fam, 11)
        for t in range(11):
            try:
                s = specialize(fam, (t,))
            except ValueError:
                assert table[t] == BAD_SENTINEL
                continue
            if reduction_type(s, 11) == "good":
                assert table[t] == ap_count(s, 11)
            else:
                assert table[t] == BAD_SENTINEL

    def test_bad_sentinel_on_bad_locus(self):
        fam = default_elliptic_family()
        table = ap_table(fam, 7)
        assert table[0] == BAD_SENTINEL and table[1] == BAD_SENTINEL


class TestGenus2:
    def test_hand_enumeration_example(self):
        # y^2 = x^5 + 1 over F_3: direct count gives (n1, n2) = (4, 10)
        one = Poly.const(3, 1)
        zero = Poly.const(3, 0)
        fam = CurveFamily(
            2, None, None, (one, zero, zero, zero, zero, one), one, frozenset({2})
        )
        s = specialize(fam, (0, 0, 0))
        assert genus2_counts(s, 3) == (4, 10)

    def test_default_family_counts(self):
        g2 = default_genus2_family()
        s = specialize(g2, (2, 3, 4))
        assert genus2_counts(s, 7) == (8, 46)
        assert frobenius_invariants(s, 7) == (0, -2)

    def test_weil_and_parity_over_range(self):
        g2 = default_genus2_family()
        s = specialize(g2, (2, 3, 4))
        for p in (7, 11, 13, 17, 19, 23):
            if reduction_type(s, p) != "good":
                continue
            n1, n2 = genus2_counts(s, p)
            a1 = p + 1 - n1
            assert a1 * a1 <= 16 * p
            assert (a1 * a1 - (p * p + 1 - n2)) % 2 == 0


def _class(m, l):
    """(trace, det) of a 2x2 matrix mod l."""
    return ((m[0][0] + m[1][1]) % l, (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % l)


class TestVerdict:
    def test_l3_coverage(self):
        # the 2-Sylow subgroups of GL2(F_3) (normalisers of the nonsplit
        # Cartan, order 16) are proper yet meet all six (tr, det) classes
        mul = lambda a, b: mat_mul(a, b, 3)
        sylow = closure([((1, 2), (1, 1)), ((1, 0), (0, 2))], mul)
        conjugates = {
            frozenset(mul(mul(g, h), mat_inv(g, 3)) for h in sylow)
            for g in gl2_elements(3)
        }
        assert len(conjugates) == 3
        full = {(tr, d) for tr in range(3) for d in (1, 2)}
        for H in conjugates:
            assert len(H) == 16
            classes = {_class(m, 3) for m in H}
            assert classes == full
            assert surjectivity_verdict(classes, 3, 1) == "undecided"

    def test_split_cartan_normaliser_undecided(self):
        # N(C_s) = <diag(a, 1), diag(1, a), w> has order 2 (l - 1)^2; its
        # nonsplit classes all have trace 0
        for l, a in ((5, 2), (7, 3), (11, 2), (13, 2)):
            gens = [((a, 0), (0, 1)), ((1, 0), (0, a)), ((0, 1), (1, 0))]
            N = closure(gens, lambda x, y: mat_mul(x, y, l))
            assert len(N) == 2 * (l - 1) ** 2
            assert surjectivity_verdict({_class(m, l) for m in N}, l, 1) == "undecided"

    def test_full_group_is_surjective(self):
        for l in (5, 7, 11, 13):
            classes = {_class(m, l) for m in gl2_elements(l)}
            assert surjectivity_verdict(classes, l, 1) == "surjective"

    def test_g2_always_undecided(self):
        assert surjectivity_verdict({(0, 1, 1)}, 3, 2) == "undecided"

    def test_scalar_classes_insufficient(self):
        # classes of scalar matrices x*I: (2x, x^2) can never certify GL2
        classes = {(2 * x % 5, x * x % 5) for x in range(1, 5)}
        assert surjectivity_verdict(classes, 5, 1) == "undecided"

    def test_generic_point_is_surjective(self):
        fam = default_elliptic_family()
        s = specialize(fam, (2,))
        classes = set()
        for p in range(5, 200):
            if all(p % d for d in range(2, p)) and p != 5:
                if reduction_type(s, p) == "good":
                    classes.add((ap_count(s, p) % 5, p % 5))
        assert surjectivity_verdict(classes, 5, 1) == "surjective"
