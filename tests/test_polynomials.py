from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievelab.finitefield import ExtField, field
from sievelab.polynomials import Poly

_terms = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(-(10**12), 10**12),
    max_size=6,
)
_values = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=8)


class TestEvalMod:
    @settings(max_examples=60, deadline=None)
    @given(_terms, _values, _values, st.sampled_from([2, 3, 5, 997, 65521, 2**31 - 1]))
    def test_matches_rational_evaluation(self, terms, a, b, p):
        f = Poly(2, terms)
        expected = [int(f(u, v)) % p for u in a for v in b]
        assert [f.eval_mod((u, v), p) for u in a for v in b] == expected
        grid = f.eval_mod((np.array(a)[:, None], np.array(b)[None, :]), p)
        assert np.broadcast_to(grid, (len(a), len(b))).ravel().tolist() == expected

    def test_fractional_coefficient_rejected(self):
        # the constructor is the one check; an integral Fraction is its int
        for build in (
            lambda: Poly(1, {(1,): Fraction(1, 2)}).eval_mod((3,), 5),
            lambda: Poly.const(1, Fraction(1, 2)),
            lambda: Poly.from_terms(1, [[1.5, 1]]),
            lambda: Poly(1, {(k,): c for k, c in enumerate([0, Fraction(1, 3)])}),
        ):
            with pytest.raises(ValueError, match="integer coefficients"):
                build()
        assert Poly.const(1, Fraction(4, 2)).terms == {(0,): 2}


def _horner(fld, terms, pt):
    """The code of sum c prod v_i^e_i at pt by Horner's rule in the last
    variable, through ``fld.mul`` and ``fld.add`` only."""
    if not pt:
        return sum(terms.values()) % fld.q
    by_k = {}
    for e, c in terms.items():
        by_k.setdefault(e[-1], {})[e[:-1]] = c
    acc = 0
    for k in range(max(by_k, default=0), -1, -1):
        acc = fld.mul(acc, pt[-1])
        if k in by_k:
            acc = fld.add(acc, _horner(fld, by_k[k], pt[:-1]))
    return acc


def _table_set(fld):
    """The field's attributes other than its getter cache, by identity."""
    return {k: id(v) for k, v in vars(fld).items() if k != "_getters"}


class TestEvalField:
    @pytest.mark.parametrize("q, n", [(2, 1), (5, 1), (7, 2), (3, 3), (5, 4)])
    def test_matches_per_point_horner(self, q, n):
        """Random polynomials in 1 to 3 variables, with coefficients = 0 mod
        q, constants and exponents >= q^n - 1, at points with zero
        coordinates and repeated heads, unsorted."""
        fld = field(q, n)
        Q = q**n
        rng = np.random.default_rng(q * 100 + n)
        exponents = [0, 1, 2, 3, q, Q - 2, Q - 1, Q, 2 * Q - 1]
        for r in (1, 2, 3):
            heads = [tuple(rng.integers(0, Q, r - 1).tolist()) for _ in range(4)] + [(0,) * (r - 1)]
            points = [h + (int(v),) for h in heads for v in rng.integers(0, Q, 6)]
            points += [(0,) * r, (1,) * r, (Q - 1,) * r]
            points = [points[i] for i in rng.permutation(len(points))]
            polys = [Poly.const(r, 0), Poly.const(r, 7 * q + 3), Poly.const(r, -q)]
            for _ in range(12):
                terms = {}
                for _ in range(int(rng.integers(1, 7))):
                    exps = tuple(int(rng.choice(exponents)) for _ in range(r))
                    terms[exps] = int(rng.choice([q, -2 * q, 1, -1, int(rng.integers(-50, 50))]))
                polys.append(Poly(r, terms))
            for f in polys:
                assert f.eval_field(fld, points) == [_horner(fld, f.terms, pt) for pt in points]
                assert f.eval_field(fld, []) == []

    def test_high_degree_keeps_spread_tables_small(self):
        """Degree 45 in the last variable over F_{5^4}: the summands add two
        at a time on the field's own 9^4-entry tables, and 150 rows of 625
        values build no other table."""
        fld = ExtField(5, 4)
        tables = _table_set(fld)
        f = Poly(2, {(k % 3, k): k + 1 for k in range(46)})
        rng = np.random.default_rng(54)
        points = [(u, int(v)) for u, v in zip(range(150), rng.integers(0, 625, 150))] + [(0, 0)]
        assert f.eval_field(fld, points) == [_horner(fld, f.terms, pt) for pt in points]
        assert len(fld._refold) == 9**4 and _table_set(fld) == tables

    def test_rows_sharing_their_part_differ_in_c0(self):
        """Rows with one (c_1, .., c_d) and c_0 = 0, 1 and 3 read one sum at
        three offsets, and a second part shares all but c_1 with them.  Four
        rows over F_{5^4} build no table beyond the field's own, on which
        every sum of two terms folds to one before c_0 joins it."""
        fld = ExtField(5, 4)
        tables = _table_set(fld)
        part = (1, 0, 3, 2, 0, 4)
        rows = [(0, *part), (1, *part), (3, *part), (2, 2, *part[1:])]
        values = fld.poly_values(rows)
        assert _table_set(fld) == tables
        for row, got in zip(rows, values):
            terms = {(k,): c for k, c in enumerate(row)}
            assert list(got) == [_horner(fld, terms, (x,)) for x in range(fld.order)]
