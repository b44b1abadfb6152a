import itertools
from fractions import Fraction

import numpy as np
import pytest

from sympy import ZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_sqf_p

from sievelab.chebotarev import (
    _squarefree,
    chebotarev_report,
    envelope_check,
    ffield_frobenius,
    ffield_specializations,
    genus2_census,
    pm_class,
)
from sievelab.curves import default_elliptic_family, default_genus2_family
from sievelab.finitefield import field
from sievelab.groups import charpoly_class_density
from sievelab.polynomials import Poly

from oracles import ap_count, genus2_counts, reduction_type, specialize


class TestSpecializations:
    def test_base_field_counts(self):
        fam = default_elliptic_family()
        _, pts = ffield_specializations(fam, 5, 1)
        assert len(pts) == 3  # F_5 minus {0, 1}

    def test_quadratic_extension_counts(self):
        fam = default_elliptic_family()
        _, pts = ffield_specializations(fam, 5, 2)
        assert len(pts) == 23

    def test_constant_bad_locus_keeps_every_t(self):
        fam = default_elliptic_family()._replace(bad_locus=Poly.const(1, 1))
        _, pts = ffield_specializations(fam, 5, 2)
        assert pts == [(t,) for t in range(25)]

    def test_degenerate_g2_base(self):
        g2 = default_genus2_family()
        _, pts = ffield_specializations(g2, 3, 1)
        assert pts == []  # needs 3 distinct values outside {0,1} in F_3


class TestFrobenius:
    def test_base_field_matches_curve_count(self):
        fam = default_elliptic_family()
        fld, pts = ffield_specializations(fam, 5, 1)

        classes = ffield_frobenius(fam, fld, pts, 3)
        for (tval,), cls in zip(pts, classes):
            s = specialize(fam, (tval,))  # in F_5 the code is the residue
            assert cls == (ap_count(s, 5) % 3, 5 % 3)

    def test_det_component_is_field_order(self):
        fam = default_elliptic_family()
        fld, pts = ffield_specializations(fam, 5, 2)
        assert all(det == 25 % 3 for _, det in ffield_frobenius(fam, fld, pts[:5], 3))

    @pytest.mark.parametrize("l", [3, 5])
    def test_batched_count_matches_per_curve_oracle(self, l):
        # the one-curve-at-a-time count, over F_{7^3}, for its 341 curves
        fam = default_elliptic_family()
        fld, pts = ffield_specializations(fam, 7, 3)
        A = fam.A.eval_field(fld, pts)
        B = fam.B.eval_field(fld, pts)
        counts = [1 + fld.affine_points([b, a, 0, 1]) for a, b in zip(A, B)]
        expected = [((fld.order + 1 - c) % l, fld.order % l) for c in counts]
        assert ffield_frobenius(fam, fld, pts, l) == expected

    def test_l_dividing_order_rejected(self):
        fam = default_elliptic_family()
        with pytest.raises(ValueError):
            ffield_frobenius(fam, field(5, 1), [(2,)], 5)

    def test_genus2_family_rejected(self):
        with pytest.raises(ValueError, match="genus 1"):
            ffield_frobenius(default_genus2_family(), field(5, 1), [(2, 3, 4)], 3)

    def test_singular_specializations_rejected(self):
        fam = default_elliptic_family()
        # t = 0 lies on the declared bad locus t(1 - t)
        with pytest.raises(ValueError, match="singular specialization"):
            ffield_frobenius(fam, field(5, 1), [(0,)], 3)
        # y^2 = x^3 + t has discriminant 0 at t = 0, off the constant locus
        t, one = Poly.var(1, 0), Poly.const(1, 1)
        cusp = fam._replace(A=Poly.const(1, 0), B=t, bad_locus=one)
        with pytest.raises(ValueError, match="singular specialization"):
            ffield_frobenius(cusp, field(5, 1), [(0,)], 3)


class TestPmClass:
    def test_trace_sign_merge(self):
        assert pm_class((1, 2), 3) == pm_class((2, 2), 3)
        assert pm_class((0, 1), 3) == (0, 1)
        assert pm_class((4, 1, 2), 5) == (1, 1, 2)


@pytest.fixture(scope="module")
def reports():
    return chebotarev_report(default_elliptic_family(), 5, 3, [1, 2, 3, 4])


class TestReport:

    def test_frequencies_sum_to_one(self, reports):
        for c in reports:
            assert sum(c.frequencies.values()) == 1
            assert sum(c.predicted.values()) == 1

    def test_deviation_strictly_decreasing(self, reports):
        devs = [c.deviation for c in reports]
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))

    def test_envelope(self, reports):
        c_emp, results = envelope_check(reports)
        assert c_emp == float(reports[0].deviation)
        final = results[-1]
        assert final[3]  # deviation(4) <= c_emp * 5^{-3/2}

    def test_prediction_keys_on_coset(self, reports):
        for c in reports:
            delta = pow(5, c.n, 3)
            assert all(k[1] == delta for k in c.predicted)

    def test_warnings(self):
        fam = default_elliptic_family()
        # 5 divides |GSp_2(F_11)| = 10 * 11 * 120; 7 shares no factor with 2 * 3 * 8
        assert chebotarev_report(fam, 5, 11, [1])[0].warnings == (
            "group order shares a factor with q",)
        assert chebotarev_report(fam, 7, 3, [1])[0].warnings == ()
        # y^2 = x^3 + x + t is smooth at every t in F_3; 3 divides both 6l and |GSp_2(F_5)|
        t, one = Poly.var(1, 0), Poly.const(1, 1)
        smooth = fam._replace(A=one, B=t, bad_locus=one)
        assert chebotarev_report(smooth, 3, 5, [1])[0].warnings == (
            "group order shares a factor with q", "q not coprime to 6l")

    def test_l2_rejected(self):
        with pytest.raises(ValueError, match="l = 2"):
            chebotarev_report(default_elliptic_family(), 5, 2, [1])


class TestGenus2Census:
    def test_q5_l3(self):
        census = genus2_census(default_genus2_family(), 5, 3)
        assert census.n_points == 6
        assert sum(census.frequencies.values()) == 1
        assert census.predicted is not None
        assert sum(census.predicted.values()) == 1
        assert all(k[2] == 5 % 3 for k in census.frequencies)

    @pytest.mark.parametrize("genus, q, l, match", [
        (1, 5, 3, "genus-2 family required"),
        (2, 2, 3, "invalid base characteristic"),
        (2, 5, 5, "invalid base characteristic"),
    ])
    def test_invalid_arguments_rejected(self, genus, q, l, match):
        fam = default_elliptic_family() if genus == 1 else default_genus2_family()
        with pytest.raises(ValueError, match=match):
            genus2_census(fam, q, l)

    def test_larger_l_predicts_the_closed_form(self):
        # the GSp4(F_l) densities on the q coset, folded through pm_class,
        # at each odd prime l <= L_LIMIT, and none past it
        fam = default_genus2_family()
        for q, l in ((7, 5), (5, 7)):
            census = genus2_census(fam, q, l)
            want = {}
            for (a1, a2), v in charpoly_class_density(l, q % l).items():
                key = pm_class((a1, a2, q % l), l)
                want[key] = want.get(key, 0) + v
            assert census.predicted == want
            assert sum(census.predicted.values()) == 1
            assert sum(census.frequencies.values()) == 1
        assert genus2_census(fam, 5, 17).predicted is None

    @pytest.mark.parametrize("q, l", [(5, 3), (7, 3), (11, 5)])
    def test_matches_specialization_oracle(self, q, l):
        # per point over Q: specialize, check good reduction, count, and
        # take a2 from (n1, n2)
        fam = default_genus2_family()
        counts = {}
        for t in itertools.product(range(q), repeat=3):
            if fam.bad_locus(*t) % q == 0:
                continue
            s = specialize(fam, t)
            assert reduction_type(s, q) == "good"
            n1, n2 = genus2_counts(s, q)
            a1 = q + 1 - n1
            a2 = (a1 * a1 - (q * q + 1 - n2)) // 2
            key = pm_class((a1 % l, a2 % l, q % l), l)
            counts[key] = counts.get(key, 0) + 1
        total = sum(counts.values())
        census = genus2_census(fam, q, l)
        assert census.n_points == total
        assert census.frequencies == {k: Fraction(v, total) for k, v in counts.items()}

    @pytest.mark.parametrize("q", [3, 5, 7, 11])
    def test_squarefree_rows_match_the_oracle(self, q):
        # monic quintics with unreduced coefficients, then planted double
        # roots (x - r)^2 g(x); at q = 5 the derivative loses its x^4 term
        rng = np.random.default_rng(q)
        rows = rng.integers(-50, 50, (300, 6))
        rows[:, 5] = 1
        planted = [
            np.convolve([r * r, -2 * r, 1], [*rng.integers(0, q, 3), 1])
            for r in rng.integers(0, q, 100)
        ]
        rows = np.vstack([rows, planted]).tolist()
        # sympy's squarefree test on the dense form, highest degree first
        expected = [gf_sqf_p(gf_from_int_poly(row[::-1], q), q, ZZ) for row in rows]
        assert [_squarefree(row, q) for row in rows] == expected
        assert any(expected) and not any(expected[300:])

    def test_bad_reduction_rejected(self):
        g2 = default_genus2_family()
        with pytest.raises(ValueError, match="bad reduction"):
            genus2_census(g2._replace(excluded_primes=frozenset({2, 5})), 5, 3)
        # y^2 = x^5 is singular at every t; a constant bad locus lets each t reach the check
        zero, one = Poly.const(3, 0), Poly.const(3, 1)
        cusp = g2._replace(quintic=(zero,) * 5 + (one,), bad_locus=one)
        with pytest.raises(ValueError, match="bad reduction"):
            genus2_census(cusp, 5, 3)

    def test_bad_reduction_in_a_later_row_rejected(self):
        # y^2 = x^5 - (t1 - 3) is singular mod 7 only at t1 = 3; the first
        # row of the batch, t = (0, 0, 0), is good
        g2 = default_genus2_family()
        zero, one = Poly.const(3, 0), Poly.const(3, 1)
        shift = Poly.const(3, 3) - Poly.var(3, 0)
        fam = g2._replace(quintic=(shift,) + (zero,) * 4 + (one,), bad_locus=one)
        with pytest.raises(ValueError, match="bad reduction"):
            genus2_census(fam, 7, 3)
        # off the singular fibre every curve is good and counted
        census = genus2_census(fam._replace(bad_locus=-shift), 7, 3)
        assert census.n_points == 6 * 7 * 7
