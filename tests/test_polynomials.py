from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
            lambda: Poly.univariate([0, Fraction(1, 3)]),
        ):
            with pytest.raises(ValueError, match="integer coefficients"):
                build()
        assert Poly.const(1, Fraction(4, 2)).terms == {(0,): 2}
