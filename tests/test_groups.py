import random
from fractions import Fraction

import numpy as np
import pytest

from sievelab import groups
from sievelab.config import gl2_class_density, primes_below, sp_order
from sievelab.groups import charpoly_class_density

from group_oracle import (
    GroupSpec,
    _code_ops,
    _decode,
    _encode,
    _J,
    _pm1,
    _similitude,
    _transvection,
    class_table,
    group_order,
    jordan_check_elements,
    pm1_lifting_check,
    property1_check,
    spec_elements,
)


def _preserves_form(m, l, mu=1):
    """m^T J m = mu J mod l, for a stack of 4 x 4 matrices."""
    J = _J(2)
    return np.all((np.swapaxes(m, -1, -2) @ J @ m - mu * J) % l == 0)


def _det_filter(l, flavor):
    """GL2(F_l) ("gsp") or SL2(F_l) ("sp") as the sorted codes, among all
    l^4 codes of 2 x 2 matrices, with det != 0 or det = 1."""
    codes = np.arange(l**4, dtype=np.int64)
    m = _decode(codes, l, 2)
    det = (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % l
    return codes[det == 1] if flavor == "sp" else codes[det != 0]


class TestOrders:
    def test_formulas(self):
        assert group_order(GroupSpec(1, 5, "sp")) == 120
        assert group_order(GroupSpec(1, 3, "gsp")) == 48
        assert group_order(GroupSpec(2, 3, "sp")) == 51840
        assert group_order(GroupSpec(2, 3, "gsp")) == 103680
        assert group_order(GroupSpec(1, 3, "gsp", pm1_quotient=True)) == 24

    def test_brute_enumeration_matches(self):
        for l in (3, 5, 7):
            for flavor in ("gsp", "sp"):
                spec = GroupSpec(1, l, flavor)
                assert len(spec_elements(spec)) == group_order(spec)

    @pytest.mark.parametrize("l", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("flavor", ["gsp", "sp"])
    def test_closure_matches_det_filter(self, l, flavor):
        # the closure over transvections (and similitudes) against the
        # matrices filtered on det, and the quotient by +-1 from them
        want = _det_filter(l, flavor)
        assert np.array_equal(spec_elements(GroupSpec(1, l, flavor)), want)
        assert np.array_equal(spec_elements(GroupSpec(1, l, flavor, pm1_quotient=True)),
                              np.unique(_pm1(want, l, 2)))

    def test_l2_unsupported(self):
        with pytest.raises(ValueError):
            GroupSpec(1, 2, "gsp")


class TestMatrixOps:
    def test_codes_sort_like_entry_tuples(self):
        codes = spec_elements(GroupSpec(1, 5, "gsp"))
        tuples = [tuple(row) for row in _decode(codes, 5, 2).reshape(-1, 4).tolist()]
        assert tuples == sorted(tuples)
        assert np.array_equal(_encode(_decode(codes, 5, 2), 5), codes)

    def test_inverse(self):
        mul, inv = _code_ops(5, 2)
        m = _encode([[1, 2], [3, 4]], 5)
        assert mul(m, inv(m)) == _encode(np.eye(2), 5)

    def test_inverse_on_whole_groups(self):
        for spec in (GroupSpec(1, 7, "gsp"), GroupSpec(2, 3, "gsp")):
            n = 2 * spec.g
            mul, inv = _code_ops(spec.l, n)
            elems = spec_elements(spec)
            assert np.all(mul(elems, inv(elems)) == _encode(np.eye(n), spec.l))

    def test_det_4x4(self):
        assert round(np.linalg.det(_J(2))) % 7 == 1

    def test_transvections_are_symplectic(self):
        for v in ((1, 0, 0, 0), (1, 1, 0, 1)):
            T = _transvection(v, 5)
            assert _similitude(T, 5) == 1
            assert _preserves_form(T, 5)


class TestSp4:
    def test_closure_reaches_full_group(self):
        elems = spec_elements(GroupSpec(2, 3, "sp"))
        assert len(elems) == 51840
        # every element preserves the form with multiplier 1
        assert _preserves_form(_decode(elems, 3, 4), 3)
        rng = random.Random(7)
        sample = np.array(rng.sample(elems.tolist(), 25))
        assert np.all(_similitude(_decode(sample, 3, 4), 3) == 1)

    def test_gsp4_similitudes(self):
        m = _decode(spec_elements(GroupSpec(2, 3, "gsp")), 3, 4)
        mu = _similitude(m, 3)
        assert np.bincount(mu).tolist() == [0, 51840, 51840]
        assert _preserves_form(m, 3, mu[:, None, None])

    def test_element_sets_are_memoised_read_only(self):
        for spec in (GroupSpec(1, 5, "gsp"), GroupSpec(2, 3, "sp"),
                     GroupSpec(1, 5, "gsp", pm1_quotient=True)):
            elems = spec_elements(spec)
            assert spec_elements(spec) is elems
            assert not elems.flags.writeable
            with pytest.raises(ValueError):
                elems[0] = 0


class TestClassTable:
    def test_gl2_class_counts(self):
        for l in (3, 5, 7):
            ct = class_table(GroupSpec(1, l, "gsp"), "brute")
            assert len(ct.entries) == l * l - 1
            assert ct.total == group_order(GroupSpec(1, l, "gsp"))

    def test_brute_keys_are_class_minima(self):
        ct = class_table(GroupSpec(1, 3, "gsp"), "brute")
        keys = list(ct.entries)
        assert [k[1] for k in keys] == list(range(8))
        assert keys[0] == ("class", 0, ((0, 1), (1, 0)))
        assert [k[2] for k in keys] == sorted(k[2] for k in keys)
        # the identity is a class of its own
        assert ct.entries[next(k for k in keys if k[2] == ((1, 0), (0, 1)))] == 1

    def test_sl2_trace_zero(self):
        ct = class_table(GroupSpec(1, 3, "sp"), "charpoly")
        tr0 = sum(v for (tr, _), v in ct.entries.items() if tr == 0)
        assert tr0 == 6

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="infeasible"):
            class_table(GroupSpec(1, 101, "gsp"), "brute")

    def test_charpoly_totals(self):
        ct = class_table(GroupSpec(2, 3, "gsp"), "charpoly")
        assert ct.total == 103680
        assert len(ct.entries) == 18


class TestDensities:
    def test_sl2_trace_zero_density(self):
        # enumeration oracle over the det = 1 coset: 6 of the 24 elements
        m = _decode(_det_filter(3, "sp"), 3, 2)
        assert int(np.sum((m[:, 0, 0] + m[:, 1, 1]) % 3 == 0)) == 6
        assert gl2_class_density(3, 0, 1) == Fraction(1, 4)

    def test_trace_two_includes_identity(self):
        # enumeration oracle over det=1 coset
        m = _decode(_det_filter(3, "sp"), 3, 2)
        count = int(np.sum((m[:, 0, 0] + m[:, 1, 1]) % 3 == 2))
        assert gl2_class_density(3, 2, 1) == Fraction(count, 24)

    def test_gl2_closed_form_matches_enumeration(self):
        for l in (3, 5, 7, 11, 13):
            m = _decode(_det_filter(l, "gsp"), l, 2)
            tr = (m[:, 0, 0] + m[:, 1, 1]) % l
            det = (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % l
            for delta in range(1, l):
                counts = np.bincount(tr[det == delta], minlength=l)
                want = {t: Fraction(int(c), int(counts.sum())) for t, c in enumerate(counts)}
                assert {t: gl2_class_density(l, t, delta) for t in range(l)} == want

    def test_sums_to_one(self):
        for delta in (1, 2):
            assert sum(gl2_class_density(3, t, delta) for t in range(3)) == 1
        d = charpoly_class_density(3, 2)
        assert sum(d.values()) == 1

    def test_nonunit_delta_rejected(self):
        with pytest.raises(ValueError):
            charpoly_class_density(3, 0)

    def test_gl2_density_is_config_only(self):
        # GL2(F_l) has one density, config.gl2_class_density; groups serves GSp4
        public = {name for name, f in vars(groups).items()
                  if callable(f) and f.__module__ == groups.__name__
                  and not name.startswith("_")}
        assert public == {"charpoly_class_density"}

    def test_gsp4_densities_are_fresh_per_call(self):
        # no caller can change what the next one gets
        first = charpoly_class_density(3, 2)
        want = dict(first)
        first.clear()
        other = charpoly_class_density(3, 1)
        other[(0, 0)] = Fraction(1)
        assert charpoly_class_density(3, 2) == want
        assert sum(charpoly_class_density(3, 1).values()) == 1


class TestGSp4ClosedForm:
    @pytest.mark.parametrize("delta", [1, 2])
    def test_matches_brute_table_at_l3(self, delta):
        # all 18 keys of the GSp4(F_3) char-poly table, 9 on each coset
        entries = class_table(GroupSpec(2, 3, "gsp"), "charpoly").entries
        counts = {key[:2]: v for key, v in entries.items() if key[2] == delta}
        want = {k: Fraction(v, sum(counts.values())) for k, v in counts.items()}
        assert len(want) == 9
        assert charpoly_class_density(3, delta) == want

    @pytest.mark.parametrize("l", primes_below(14)[1:])
    def test_coset_counts_sum_to_sp4_order(self, l):
        # each key's count N(a1, a2, mu) is a whole number; each coset holds |Sp4(F_l)|
        coset = sp_order(2, l)
        for mu in range(1, l):
            dens = charpoly_class_density(l, mu)
            assert list(dens) == [(a1, a2) for a1 in range(l) for a2 in range(l)]
            counts = [v * coset for v in dens.values()]
            assert all(c.denominator == 1 and c > 0 for c in counts)
            assert sum(counts) == coset
            assert sum(dens.values()) == 1

    def test_even_l_rejected(self):
        with pytest.raises(ValueError, match="odd prime"):
            charpoly_class_density(2, 1)


class TestLemmas:
    def test_property1_g1(self):
        rep = property1_check(1, [3, 5, 7, 11, 13])
        assert rep.passes
        assert rep.beta1 == 4 and rep.beta2 == 2
        assert rep.c1 <= 2 and rep.c2 <= 2

    def test_jordan_on_small_groups(self):
        for flavor in ("gsp", "sp"):
            assert jordan_check_elements(spec_elements(GroupSpec(1, 3, flavor)), *_code_ops(3, 2))

    def test_jordan_cyclic_c6(self):
        c6 = list(range(6))
        assert jordan_check_elements(c6, lambda a, b: (a + b) % 6, lambda a: (-a) % 6)

    def test_pm1_lifting(self):
        assert pm1_lifting_check(1, 3)
        assert pm1_lifting_check(2, 3)

    def test_pm1_sl2_image_is_proper(self):
        image = np.unique(_pm1(spec_elements(GroupSpec(1, 3, "sp")), 3, 2))
        full = np.unique(_pm1(spec_elements(GroupSpec(1, 3, "gsp")), 3, 2))
        assert len(image) < len(full)
