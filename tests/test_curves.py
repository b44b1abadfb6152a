import itertools
import random
from fractions import Fraction

import numpy as np
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
from sievelab.brun import primes_below
from sievelab.curves import _generates_units
from sievelab.groups import _code_ops, _decode, _encode, closure, gl2_elements
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


def _ap_table_oracle(family, p):
    """The (p x p) character-sum grid: a_p(t) = -sum_x chi(x^3 + A(t)x + B(t)),
    with BAD_SENTINEL where the discriminant vanishes mod p."""
    A = np.array([family.A.eval_mod((t,), p) for t in range(p)], dtype=np.int64)
    B = np.array([family.B.eval_mod((t,), p) for t in range(p)], dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[0] = 0
    chi[[y * y % p for y in range(1, p)]] = 1
    x = np.arange(p, dtype=np.int64)
    f = (x * x % p * x)[None, :] + A[:, None] * x[None, :] + B[:, None]
    a = -chi[f % p].sum(axis=1)
    a[-16 * (4 * A**3 + 27 * B**2) % p == 0] = BAD_SENTINEL
    return a


def _oracle_family(A, B):
    return CurveFamily(1, A, B, (), Poly.const(1, 1), frozenset())


_T = Poly.var(1, 0)
# a generic family, and families with j = 0 (A = 0) and j = 1728 (B = 0)
_ORACLE_FAMILIES = {
    "generic": _oracle_family(_T * _T + 3 * _T - 1, _T**3 - 2 * _T + 5),
    "j0": _oracle_family(Poly.const(1, 0), _T * _T + _T + 1),
    "j1728": _oracle_family(_T**3 + 2, Poly.const(1, 0)),
}


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

    def test_default_family_matches_grid_oracle(self):
        fam = default_elliptic_family()
        for p in primes_below(2000)[1:]:
            table = ap_table(fam, p)
            assert table.dtype == np.int64
            assert np.array_equal(table, _ap_table_oracle(fam, p)), p

    @pytest.mark.parametrize("name", sorted(_ORACLE_FAMILIES))
    def test_special_families_match_grid_oracle(self, name):
        fam = _ORACLE_FAMILIES[name]
        for p in primes_below(500):
            assert np.array_equal(ap_table(fam, p), _ap_table_oracle(fam, p)), p

    @pytest.mark.parametrize("name", ["default", *sorted(_ORACLE_FAMILIES)])
    def test_sample_matches_pointwise_oracles(self, name):
        fam = _ORACLE_FAMILIES.get(name) or default_elliptic_family()
        for p in (5, 7, 13, 31, 97):
            table = ap_table(fam, p)
            for t in (2, 3, 4, 6, 11, 96):
                s = specialize(fam, (t,))
                if reduction_type(s, p) == "good":
                    assert table[t % p] == ap_count(s, p) == ap_count_pointloop(s, p)
                else:
                    assert table[t % p] == BAD_SENTINEL


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


def _subgroup(gens, l):
    """Codes of the subgroup of GL2(F_l) generated by 2 x 2 matrices."""
    return closure(_encode(np.array(gens), l), _code_ops(l, 2)[0])


def _classes(codes, l):
    """The (trace, det) classes of a set of GL2(F_l) codes."""
    m = _decode(codes, l, 2)
    tr = (m[:, 0, 0] + m[:, 1, 1]) % l
    det = (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % l
    return set(zip(tr.tolist(), det.tolist()))


def _projective_orders(codes, l):
    """The set of orders of the images of the elements in PGL2(F_l)."""
    mul = _code_ops(l, 2)[0]
    orders = np.zeros(len(codes), dtype=np.int64)
    power, k = codes, 1
    while not orders.all():
        m = _decode(power, l, 2)
        scalar = (m[:, 0, 1] == 0) & (m[:, 1, 0] == 0) & (m[:, 0, 0] == m[:, 1, 1])
        orders[scalar & (orders == 0)] = k
        power, k = mul(power, codes), k + 1
    return set(orders.tolist())


# Lifts of generators of A4, S4 and A5 in PGL2(F_l), found by a one-off
# random search over pairs (a, b) with a of projective order 2
EXCEPTIONAL_LIFTS = {
    (5, "A4"): [[[1, 0], [1, 4]], [[4, 3], [1, 3]]],
    (5, "S4"): [[[1, 3], [4, 4]], [[0, 4], [3, 4]]],
    (5, "A5"): [[[3, 0], [2, 2]], [[3, 1], [1, 0]]],
    (7, "A4"): [[[1, 5], [1, 6]], [[6, 0], [2, 5]]],
    (7, "S4"): [[[5, 6], [5, 2]], [[0, 2], [3, 4]]],
    (11, "A4"): [[[9, 1], [3, 2]], [[0, 7], [1, 2]]],
    (11, "S4"): [[[9, 3], [10, 2]], [[4, 7], [8, 2]]],
    (11, "A5"): [[[8, 6], [2, 3]], [[5, 6], [2, 7]]],
    (13, "A4"): [[[3, 7], [2, 10]], [[5, 8], [1, 7]]],
    (13, "S4"): [[[5, 6], [7, 8]], [[2, 6], [7, 4]]],
}
# order and element orders, which single out each group among its order
EXCEPTIONAL_GROUPS = {"A4": (12, {1, 2, 3}), "S4": (24, {1, 2, 3, 4}), "A5": (60, {1, 2, 3, 5})}


class TestVerdict:
    def test_l3_coverage(self):
        # the 2-Sylow subgroups of GL2(F_3) (normalisers of the nonsplit
        # Cartan, order 16) are proper yet meet all six (tr, det) classes
        mul, inv = _code_ops(3, 2)
        sylow = _subgroup([[[1, 2], [1, 1]], [[1, 0], [0, 2]]], 3)
        conjugates = {
            frozenset(mul(mul(g, sylow), inv(g)).tolist()) for g in gl2_elements(3)
        }
        assert len(conjugates) == 3
        full = {(tr, d) for tr in range(3) for d in (1, 2)}
        for H in conjugates:
            assert len(H) == 16
            classes = _classes(np.array(sorted(H)), 3)
            assert classes == full
            assert surjectivity_verdict(classes, 3, 1) == "undecided"

    def test_split_cartan_normaliser_undecided(self):
        # N(C_s) = <diag(a, 1), diag(1, a), w> has order 2 (l - 1)^2; its
        # nonsplit classes all have trace 0
        for l, a in ((5, 2), (7, 3), (11, 2), (13, 2)):
            N = _subgroup([[[a, 0], [0, 1]], [[1, 0], [0, a]], [[0, 1], [1, 0]]], l)
            assert len(N) == 2 * (l - 1) ** 2
            assert surjectivity_verdict(_classes(N, l), l, 1) == "undecided"

    def test_more_proper_subgroups_undecided(self):
        # g is a primitive root mod l, hence a nonsquare
        for l, g in ((5, 2), (7, 3), (11, 2), (13, 2)):
            upper = [[1, 1], [0, 1]]
            cartan_ns = [[[a, g * b % l], [b, a]] for a in range(l) for b in range(l) if a or b]
            subgroups = {
                "Borel": ([[[g, 0], [0, 1]], [[1, 0], [0, g]], upper], l * (l - 1) ** 2),
                "nonsplit Cartan normaliser": (cartan_ns + [[[1, 0], [0, l - 1]]], 2 * (l * l - 1)),
                "SL2": ([upper, [[1, 0], [1, 1]]], l * (l * l - 1)),
                # det image: the squares, a proper subgroup of the units
                "SL2 . diag(g^2, 1)": (
                    [upper, [[1, 0], [1, 1]], [[g * g % l, 0], [0, 1]]],
                    l * (l * l - 1) * (l - 1) // 2,
                ),
            }
            for name, (gens, order) in subgroups.items():
                H = _subgroup(gens, l)
                assert len(H) == order, (l, name)
                assert surjectivity_verdict(_classes(H, l), l, 1) == "undecided", (l, name)

    def test_exceptional_images_undecided(self):
        # the preimage in GL2(F_l) of A4, S4 or A5 in PGL2(F_l): all scalars
        # (g is a primitive root) with the two lifts; order (l - 1) |G|
        roots = {5: 2, 7: 3, 11: 2, 13: 2}
        for (l, name), lifts in EXCEPTIONAL_LIFTS.items():
            g = roots[l]
            H = _subgroup([[[g, 0], [0, g]]] + lifts, l)
            order, element_orders = EXCEPTIONAL_GROUPS[name]
            assert len(H) == (l - 1) * order, (l, name)
            assert _projective_orders(H, l) == element_orders, (l, name)
            assert surjectivity_verdict(_classes(H, l), l, 1) == "undecided", (l, name)

    def test_full_group_is_surjective(self):
        for l in (5, 7, 11, 13):
            assert surjectivity_verdict(_classes(gl2_elements(l), l), l, 1) == "surjective"

    def test_generates_units_matches_closure(self):
        # every subset of F_l^x for l = 5, 7; seeded random subsets for 11, 13
        rng = random.Random(3)
        for l in (5, 7, 11, 13):
            units = list(range(1, l))
            if l < 11:
                subsets = [c for k in range(l) for c in itertools.combinations(units, k)]
            else:
                subsets = [rng.sample(units, rng.randint(1, 4)) for _ in range(300)]
            for S in subsets:
                full = bool(S) and len(closure(S, lambda a, b: a * b % l)) == l - 1
                assert _generates_units(S, l) == full, (l, S)

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
