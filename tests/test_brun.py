import functools
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sievelab import brun
from sievelab.brun import (
    brun_coefficients,
    density_condition_check,
    good_reduction_census,
    implied_s_threshold,
    lattice_remainder_audit,
    primes_below,
    sandwich,
)
from sievelab.curves import default_elliptic_family, default_genus2_family
from sievelab.heights import enumerate_projective
from sievelab.polynomials import Poly
from sievelab.sieve import SieveSupport, SievingSet


def _omega_zero(p):
    return SievingSet(p, 1, frozenset({(0,)}))


def _loop_masks(X, F, sets):
    """Oracle for ``brun._hit_masks``: one residue tuple of ints per point and
    set, looked up in Omega_p; the last set of a prime gives its mask."""
    masks = {}
    for s in sets:
        m = 0
        for i, u in enumerate(X):
            if tuple(operator.index(c) % s.p for c in F(u)) in s.residues:
                m |= 1 << i
        masks[s.p] = m
    return masks


def _sandwich_sets(primes):
    """The sieving sets of the benchmark's sandwich: the zeros of the
    homogenised bad locus of the default family mod p, in dimension 2."""
    f = default_elliptic_family().bad_locus.homogenize()
    return {p: SievingSet.from_predicate(p, 2, lambda v, p=p: f.eval_mod(v, p) == 0)
            for p in primes}


@functools.lru_cache(maxsize=None)
def _points(x, r=1):
    return enumerate_projective(r, x)


def _family(name):
    """The default family; under t -> t + 2 (bad locus (t + 2)(-1 - t), so
    t = 0, the point (1 : 0), is good at every prime); with bad locus
    t(5t - 1), whose point at infinity (0 : 1) is bad mod 5; and three
    genus-2 families with no excluded primes."""
    t = Poly.var(1, 0)
    t1, t2, t3 = (Poly.var(3, i) for i in range(3))
    bad = {
        "default": None,
        "shifted": (t + 2) * (-1 - t),
        "infinity": t * (5 * t - 1),
        "g2-quadric": t1 * t1 + t2 * t3 + 1,
        "g2-product": (t1 - 2) * (t2 + t3) - 1,
        "g2-cubic": t1 * t2 * t3 - 3,
    }[name]
    if name.startswith("g2"):
        return default_genus2_family()._replace(bad_locus=bad, excluded_primes=frozenset())
    fam = default_elliptic_family()
    return fam if bad is None else fam._replace(bad_locus=bad)


def _audit_hits(d, omega_d, x, r):
    """Oracle for the hit count of ``lattice_remainder_audit``: every vector
    of [-x, x]^{r+1}, reduced mod d and looked up in Omega_d."""
    box = itertools.product(range(-x, x + 1), repeat=r + 1)
    return sum(tuple(c % d for c in v) in omega_d for v in box)


class TestCoefficients:
    def test_upper_depth1_truncation(self):
        lam = brun_coefficients([2, 3, 5], 1, "upper")
        assert lam[1] == 1
        assert lam[2] == lam[3] == lam[5] == -1
        assert lam[6] == lam[10] == lam[15] == 1
        assert 30 not in lam  # omega = 3 > 2b

    def test_lower_depth1(self):
        lam = brun_coefficients([2, 3, 5, 7], 1, "lower")
        assert lam[1] == 1
        assert all(lam[p] == -1 for p in (2, 3, 5, 7))
        assert 6 not in lam  # omega = 2 > 2b - 1

    def test_untruncated_is_moebius(self):
        lam_u = brun_coefficients([2, 3, 5], None, "upper")
        lam_l = brun_coefficients([2, 3, 5], None, "lower")
        assert lam_u == lam_l
        assert lam_u[30] == -1

    def test_bad_args(self):
        with pytest.raises(ValueError):
            brun_coefficients([2], 0, "upper")
        with pytest.raises(ValueError):
            brun_coefficients([2], 1, "sideways")


class TestSandwich:
    def _run(self, n, Q, b=None):
        X = list(range(1, n + 1))
        primes = tuple(primes_below(Q))
        support = SieveSupport(primes, Q)
        sets = {p: _omega_zero(p) for p in primes}
        return sandwich(X, lambda t: (t,), sets, support, b=b)

    def test_untruncated_equality(self):
        # empty support, the parity sieve, Eratosthenes to 7 and to 10
        for n, Q, survivors in ((10, 2, 10), (10, 3, 5), (30, 7, 8), (100, 10, 22)):
            rep = self._run(n, Q)
            assert rep.lower == rep.exact == rep.upper == survivors
            assert survivors == sum(all(t % p for p in primes_below(Q)) for t in range(1, n + 1))
        assert rep.main_term == Fraction(160, 7)

    def test_acceptance_configuration(self):
        for b in (1, 2, 3):
            rep = self._run(1000, 30, b=b)
            assert rep.lower <= rep.exact <= rep.upper

    def test_depth_tightening(self):
        r1 = self._run(1000, 30, b=1)
        r2 = self._run(1000, 30, b=2)
        assert r2.upper <= r1.upper
        assert r2.lower >= r1.lower

    def test_remainders_nonnegative(self):
        rep = self._run(500, 20, b=2)
        assert rep.remainder_plus >= 0 and rep.remainder_minus >= 0

    @pytest.mark.parametrize("b", [1, 2, 3, None])
    @pytest.mark.parametrize("height", [0, 60])
    def test_array_masks_match_point_loop(self, monkeypatch, b, height):
        primes = (5, 7, 11, 13)
        sets = _sandwich_sets(primes)
        support = SieveSupport(primes, 17)
        X = _points(height) if height else []
        F = operator.attrgetter("coords")
        masks = brun._hit_masks(X, F, list(sets.values()))
        assert masks == _loop_masks(X, F, list(sets.values()))
        rep = sandwich(X, F, sets, support, b=b)
        monkeypatch.setattr(brun, "_hit_masks", _loop_masks)
        assert rep == sandwich(X, F, sets, support, b=b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_hit_masks_match_point_loop(self, dim, data):
        # primes on both sides of p^dim = 256 (byte lanes and the per-point
        # lookup), often more than eight byte-coded sets (two words); Omega_p
        # with residues outside [0, p) and tuples of the wrong length, never
        # hit, as in the tuple lookup; coordinates near +-10^30; and at times
        # more points than one block
        primes = data.draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 257]),
                                    min_size=1, max_size=12))
        q = max(primes)
        near = st.integers(-2 * q, 2 * q)
        coord = near | near.map(lambda c: c + 10**30) | near.map(lambda c: c - 10**30)
        X = data.draw(st.lists(st.tuples(*[coord] * dim), max_size=40))
        if data.draw(st.booleans()):
            rng = random.Random(data.draw(st.integers(0, 9)))
            X += [tuple(rng.randrange(-3 * q, 3 * q) for _ in range(dim))
                  for _ in range(brun._BLOCK + 1)]
        sets = []
        for p in primes:
            entry = st.lists(st.integers(-1, p), min_size=dim - 1, max_size=dim + 1).map(tuple)
            residues = data.draw(st.frozensets(entry, max_size=12))
            sets.append(SievingSet(p, dim, residues | {tuple(c % p for c in u) for u in X[:2]}))
        # each set's own mask, the sets of a repeated prime included
        expected = tuple((s.p, _loop_masks(X, tuple, [s])[s.p]) for s in sets)
        assert brun._masks(tuple(X), tuple(sets)) == expected
        assert brun._hit_masks(X, tuple, sets) == dict(expected)

    @pytest.mark.parametrize("primes", [(5, 13), (17, 19)], ids=["lanes", "per-point"])
    @pytest.mark.parametrize("coord", [2.0, Fraction(2), np.float64(2)])
    def test_non_integer_coordinates_rejected(self, monkeypatch, primes, coord):
        # a float or Fraction equal to an int once passed as that int; on a
        # memo miss, both paths reject it
        monkeypatch.setattr(brun, "_last", [None, ()])
        sets = {p: SievingSet(p, 2, frozenset({(2, 1)})) for p in primes}
        support = SieveSupport(primes, 23)
        F = lambda t: (coord, 1) if t == 3 else (t, 1)
        with pytest.raises(ValueError, match="non-integer coordinate"):
            brun._hit_masks([1, 2, 3], F, list(sets.values()))
        with pytest.raises(ValueError, match="non-integer coordinate"):
            sandwich([1, 2, 3], F, sets, support)

    @pytest.mark.parametrize("primes", [(5, 13), (17, 19)], ids=["lanes", "per-point"])
    def test_equal_non_integer_images_rejected_after_int_call(self, monkeypatch, primes):
        # float or Fraction images equal to the last call's int ones once
        # got its masks back unchecked
        monkeypatch.setattr(brun, "_last", [None, ()])
        sets = {p: SievingSet(p, 2, frozenset({(2, 1)})) for p in primes}
        support = SieveSupport(primes, 23)
        for kind in (float, Fraction):
            brun._hit_masks([1, 2, 3], lambda t: (t, 1), list(sets.values()))
            with pytest.raises(ValueError, match="non-integer coordinate"):
                brun._hit_masks([1, 2, 3], lambda t: (kind(t), 1), list(sets.values()))
            sandwich([1, 2, 3], lambda t: (t, 1), sets, support)
            with pytest.raises(ValueError, match="non-integer coordinate"):
                sandwich([1, 2, 3], lambda t: (kind(t), 1), sets, support)

    @pytest.mark.parametrize("primes", [(5, 13), (17, 19)], ids=["lanes", "per-point"])
    def test_non_integer_coordinate_in_later_block_stores_nothing(self, monkeypatch, primes):
        # the images are checked block by block: a float past the first block
        # still raises, the memo keeps the last good call, and the next call
        # builds the right masks; equal images through the memo are checked
        # past the first block too
        monkeypatch.setattr(brun, "_last", [None, ()])
        sets = [SievingSet(p, 2, frozenset({(2, 1), (0, 1)})) for p in primes]
        X = range(brun._BLOCK + 10)
        good = lambda t: (t, 1)
        brun._hit_masks(X[:20], good, sets)
        bad = lambda t: (float(t), 1) if t == brun._BLOCK + 5 else (t, 1)
        for expected in (_loop_masks(X[:20], good, sets), _loop_masks(X, good, sets)):
            before = list(brun._last)
            with pytest.raises(ValueError, match="non-integer coordinate"):
                brun._hit_masks(X, bad, sets)
            assert brun._last[0] is before[0] and brun._last[1] is before[1]
            assert dict(brun._last[1]) == expected
            assert brun._hit_masks(X, good, sets) == _loop_masks(X, good, sets)

    def test_same_tuples_hit_unchecked(self, monkeypatch, builds):
        # the stored tuples were checked when stored; equal other tuples
        # are checked, not built
        checks = []
        check = brun._check_images
        monkeypatch.setattr(brun, "_check_images",
                            lambda images, dim: checks.append(len(images)) or check(images, dim))
        X = _points(20)
        sets = list(_sandwich_sets((5, 7)).values())
        first = brun._hit_masks(X, operator.attrgetter("coords"), sets)
        assert checks == builds == [len(X)]
        assert brun._hit_masks(X, operator.attrgetter("coords"), sets) == first
        assert checks == builds == [len(X)]
        assert brun._hit_masks(X, lambda u: tuple(list(u.coords)), sets) == first
        assert checks == [len(X)] * 2 and builds == [len(X)]

    def test_numpy_images_match_ints(self):
        # numpy int64 coordinates on both paths; the memo, which compares
        # by ==, would hand the int images' masks back, so build each time
        X = _points(60)
        sets = (*_sandwich_sets((5, 7, 11, 13)).values(),
                SievingSet.from_predicate(17, 2, lambda v: (v[0] * v[0] - v[1]) % 17 == 0))
        as_ints = brun._masks(tuple(u.coords for u in X), sets)
        int64 = tuple(tuple(np.array(u.coords, dtype=np.int64)) for u in X)
        assert type(int64[0][0]) is np.int64
        assert brun._masks(int64, sets) == as_ints
        assert dict(as_ints) == _loop_masks(X, operator.attrgetter("coords"), sets)
        # ndarray images through the memo after an int call: == on an ndarray
        # is elementwise, so the memo compares their tuple snapshot
        assert brun._hit_masks(X, operator.attrgetter("coords"), sets) == dict(as_ints)
        arrays = lambda u: np.array(u.coords, dtype=np.int64)
        assert type(arrays(X[0])) is np.ndarray
        assert brun._hit_masks(X, arrays, sets) == dict(as_ints)

    @pytest.mark.parametrize("primes", [(5, 7, 11, 13), (5, 7, 11, 13, 17, 19, 23)],
                             ids=["lanes", "lanes-and-per-point"])
    def test_mask_build_memory_at_300(self, primes):
        # the tracemalloc peak of the mask build over the images of the
        # benchmark's x = 300 sandwich: columns, words and residue codes are
        # built per block, for the per-point sets too
        images = tuple(u.coords for u in _points(300))
        sets = tuple(_sandwich_sets(primes).values())
        tracemalloc.start()
        try:
            brun._masks(images, sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_mixed_length_images_rejected(self):
        support = SieveSupport((5,), 7)
        sets = {5: _omega_zero(5)}
        with pytest.raises(ValueError, match="coordinates"):
            sandwich([1, 2, 3], lambda t: (t,) if t < 3 else (t, t), sets, support)
        with pytest.raises(ValueError, match="coordinates"):
            sandwich([1, 2, 3], lambda t: (t, t), sets, support)

    def test_large_prime_dim3_matches_point_loop(self):
        # no residue table or fixed-width code: p^3 is far beyond 2^63 here
        p = 2**31 - 1
        omega = frozenset({(0, 0, 0), (1, p - 1, 2), (-1, 1, -2)})
        sets = [SievingSet(p, 3, omega)]
        X = [1, 2, -1, p]
        F = lambda t: (t, -t, 2 * t)
        assert brun._hit_masks(X, F, sets) == _loop_masks(X, F, sets) == {p: 0b1001}
        support = SieveSupport((p,), 2**31)
        assert sandwich(X, F, {p: sets[0]}, support).exact == 2

    def test_repeat_calls_match_point_loop(self):
        # the masks of the last call are kept: every call must still see the
        # values it was given, and no caller may change what the next one gets
        X = _points(20)
        sets = [SievingSet(p, 2, frozenset({(0, 1), (1, 1), (2, 0)})) for p in (3, 5)]
        other = [SievingSet(3, 2, frozenset({(1, 2)})), SievingSet(7, 2, frozenset({(0, 1)}))]
        coords = operator.attrgetter("coords")
        swapped = lambda u: u.coords[::-1]
        seen = []
        for F, S in ((coords, sets), (swapped, sets), (coords, sets), (coords, other),
                     (coords, sets[:1])):
            seen.append(brun._hit_masks(X, F, S))
            assert seen[-1] == _loop_masks(X, F, S)
        assert seen[0] == seen[2] and seen[0] not in (seen[1], seen[3], seen[4])
        rows = [list(u.coords) for u in X]
        first = brun._hit_masks(rows, list, sets)
        assert first == _loop_masks(rows, list, sets)
        for row in rows:
            row[0] += 1
        second = brun._hit_masks(rows, list, sets)
        assert second == _loop_masks(rows, list, sets) != first
        second[3] = 0
        del second[5]
        assert brun._hit_masks(rows, list, sets) == _loop_masks(rows, list, sets)

    @pytest.fixture
    def builds(self, monkeypatch):
        """The calls of the mask builder, from an empty memo on."""
        calls = []
        build = brun._masks
        monkeypatch.setattr(brun, "_last", [None, ()])
        monkeypatch.setattr(brun, "_masks",
                            lambda images, sets: calls.append(len(images)) or build(images, sets))
        return calls

    @pytest.mark.parametrize("F", [operator.attrgetter("coords"),
                                   lambda u: tuple(list(u.coords)),
                                   lambda u: list(u.coords)],
                             ids=["same", "fresh-tuples", "lists"])
    def test_depths_build_masks_once(self, builds, F):
        primes = (5, 7, 11, 13)
        sets = _sandwich_sets(primes)
        support = SieveSupport(primes, 17)
        X = _points(60)
        for b in (1, 2, 3, None):
            sandwich(X, F, sets, support, b=b)
        assert builds == [len(X)]

    def test_other_inputs_build_again(self, builds):
        # each call differs from the one before in F, the set order or the
        # order of X
        X = _points(20)
        shuffled = random.Random(5).sample(X, len(X))
        sets = [SievingSet(p, 2, frozenset({(0, 1), (1, 1), (2, 0)})) for p in (3, 5)]
        coords = operator.attrgetter("coords")
        swapped = lambda u: u.coords[::-1]
        calls = ((X, coords, sets), (X, swapped, sets), (X, swapped, sets[::-1]),
                 (shuffled, swapped, sets[::-1]))
        for i, (pts, F, S) in enumerate(calls, 1):
            assert brun._hit_masks(pts, F, S) == _loop_masks(pts, F, S)
            assert len(builds) == i

    def test_mutated_list_images_build_again(self, builds):
        # F hands back the caller's own lists: equal lists still hit the
        # memo, and a change to them between calls is seen by the next one
        rows = [list(u.coords) for u in _points(20)]
        sets = [SievingSet(p, 2, frozenset({(0, 1), (1, 1), (2, 0)})) for p in (3, 5)]
        calls = []
        F = lambda row: calls.append(row) or row
        seen = []
        for shift in (0, 0, 1, -1):
            for row in rows:
                row[1] += shift
            seen.append(brun._hit_masks(rows, F, sets))
            assert seen[-1] == _loop_masks(rows, tuple, sets)
            assert len(calls) == len(rows) * len(seen)  # F once per point per call
        assert builds == [len(rows)] * 3
        assert seen[0] == seen[1] == seen[3] != seen[2]

    def test_mixed_dimension_sets_rejected(self):
        support = SieveSupport((5, 7), 11)
        sets = {5: _omega_zero(5), 7: SievingSet(7, 2, frozenset({(0, 0)}))}
        with pytest.raises(ValueError, match="dimensions"):
            sandwich([1, 2, 3], lambda t: (t,), sets, support)

    def test_missing_set_rejected(self):
        support = SieveSupport((2, 3), 5)
        with pytest.raises(ValueError, match="missing sieving set"):
            sandwich([1, 2], lambda t: (t,), {2: _omega_zero(2)}, support)


class TestRemainderAudit:
    def test_trivial_modulus(self):
        audit = lattice_remainder_audit(1, set(), 10, 1)
        assert audit.measured == 0 and audit.ok

    def test_single_residue_small(self):
        audit = lattice_remainder_audit(2, {(0, 0)}, 50, 1)
        assert audit.ok
        assert abs(audit.measured) <= audit.bound

    def test_composite_modulus(self):
        omega = {(a, b) for a in range(6) for b in range(6) if b % 6 == 0}
        audit = lattice_remainder_audit(6, omega, 60, 1)
        assert audit.ok

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 3), st.integers(1, 6), st.data())
    def test_closed_form_matches_box_loop(self, d, r, x, data):
        # tuples of the wrong length or with entries outside [0, d) are never hit
        entry = st.lists(st.integers(-1, d), min_size=r, max_size=r + 2).map(tuple)
        omega = data.draw(st.frozensets(entry, max_size=10))
        nu_d = Fraction(len(omega), d ** (r + 1))
        expected = _audit_hits(d, omega, x, r) - nu_d * (2 * x + 1) ** (r + 1)
        assert lattice_remainder_audit(d, omega, x, r).measured == expected


def _brute_good(x, Q, name):
    """Points of height <= x with good reduction at every support prime
    below Q, by evaluating the bad locus at every point."""
    fam = _family(name)
    f = fam.bad_locus.homogenize()
    support = [p for p in primes_below(Q) if p not in fam.excluded_primes]
    coords = tuple(np.array([pt.coords for pt in _points(x, fam.r)]).T)
    good = np.ones(coords[0].size, dtype=bool)
    for p in support:
        good &= f.eval_mod(coords, p) != 0
    return int(good.sum())


class TestGoodReduction:
    def test_small_census_matches_brute(self):
        fam = default_elliptic_family()
        c_numpy = good_reduction_census(fam, 250, 15)
        # brute force via the projective enumeration
        f = fam.bad_locus.homogenize()
        support = [p for p in primes_below(15) if p not in fam.excluded_primes]
        brute = sum(
            1
            for pt in enumerate_projective(1, 250)
            if all(f.eval_mod(pt.coords, p) != 0 for p in support)
        )
        assert c_numpy.count == brute

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.tuples(
                st.integers(1, 80),
                st.integers(2, 40),
                st.sampled_from(["default", "shifted", "infinity"]),
            ),
            st.tuples(
                st.integers(1, 6),
                st.integers(2, 12),
                st.sampled_from(["g2-quadric", "g2-product", "g2-cubic"]),
            ),
        )
    )
    @example((1, 2, "default"))  # empty support
    @example((1, 40, "shifted"))  # primes wider than the row of b
    @example((80, 40, "infinity"))
    @example((1, 12, "g2-quadric"))  # r = 3, primes wider than the row of b
    @example((6, 12, "g2-product"))
    @example((6, 12, "g2-cubic"))
    def test_bitset_matches_brute(self, case):
        x, Q, name = case
        assert good_reduction_census(_family(name), x, Q).count == _brute_good(x, Q, name)

    @pytest.mark.parametrize("case", [
        (1, 2, "default"), (1, 40, "shifted"), (80, 40, "infinity"), (40, 12, "default"),
        (12, 5, "default"), (1, 12, "g2-quadric"), (6, 12, "g2-product"), (6, 12, "g2-cubic"),
    ])
    def test_bitset_in_blocks_of_three_rows(self, case):
        # the gcds 30 and 60 have three prime factors; at x = 12 and 40 the
        # primes q > sqrt(x) outside the support clear their "q | b" bits;
        # r = 3; and support primes wider than the row of b
        x, Q, name = case
        assert good_reduction_census(_family(name), x, Q).count == _brute_good(x, Q, name)

    def test_count_at_the_goodred_cap(self):
        assert good_reduction_census(default_elliptic_family(), 10**4, 100).count == 18734138

    @pytest.mark.parametrize("x", [0, -3])
    def test_height_bound_below_one_rejected(self, x):
        with pytest.raises(ValueError, match="height bound"):
            good_reduction_census(default_elliptic_family(), x, 10)

    def test_kappa_and_support(self):
        fam = default_elliptic_family()
        c = good_reduction_census(fam, 100, 10)
        assert c.kappa == 2
        assert c.support == (5, 7)

    def test_floor_ratio_at_1000(self):
        fam = default_elliptic_family()
        c = good_reduction_census(fam, 1000, 32)
        assert c.count == 293973
        assert c.ratio > 1  # comfortably above the asymptotic floor shape


class TestEnvelope:
    def test_density_condition(self):
        densities = {p: Fraction(2, p) for p in primes_below(100) if p > 3}
        holds, lhs = density_condition_check(densities, 5, 100, 2, 30.0)
        assert holds and lhs >= 1

    def test_s_threshold_shape(self):
        assert implied_s_threshold(2, 1.0) == 19
        assert implied_s_threshold(2, math.e) == pytest.approx(29.0)
