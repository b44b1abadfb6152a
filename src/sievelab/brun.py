"""Bonferroni/Brun sandwich bounds, remainder audits, and the good-reduction census.

The upper/lower sieve coefficients are the classical truncated-Moebius
(Bonferroni) weights: lambda_d = mu(d) when omega(d) <= 2b (upper) or
<= 2b-1 (lower), zero otherwise.  They satisfy the support and magnitude
constraints of the abstract coefficient theorem and give a valid sandwich by
the Bonferroni inequalities, at every depth b.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from .config import _every, coprime_rows, primes_below, squarefree_products


def brun_coefficients(support_primes, b, sign):
    """Truncated-Moebius coefficients {d: lambda_d} over the given support
    primes; zeros omitted, b = None for the full Moebius weights."""
    if sign not in ("upper", "lower"):
        raise ValueError("sign must be 'upper' or 'lower'")
    if b is not None and b < 1:
        raise ValueError("depth must be >= 1")
    if b is None:
        cutoff = None
    else:
        cutoff = 2 * b if sign == "upper" else 2 * b - 1
    return {
        d: (-1) ** len(factors)
        for d, factors in squarefree_products(support_primes)
        if cutoff is None or len(factors) <= cutoff
    }


class SandwichReport(namedtuple("SandwichReport",
                                "main_term lower upper remainder_plus remainder_minus exact")):
    """The sandwich on the sifted count ``exact``, in Fractions; ``main_term``
    is H * prod_{p in support} (1 - nu_p)."""

    __slots__ = ()

    def to_json(self):
        import json
        from fractions import Fraction

        def fr(v):
            v = Fraction(v)
            return f"{v.numerator}/{v.denominator}"

        return json.dumps(
            {
                "main_term": fr(self.main_term),
                "lower": fr(self.lower),
                "upper": fr(self.upper),
                "remainder_plus": fr(self.remainder_plus),
                "remainder_minus": fr(self.remainder_minus),
                "exact": self.exact,
            },
            sort_keys=True,
        )


def sandwich(X, F, sets_by_prime, support, b=None):
    """Bonferroni sandwich on |sifted set| with exact congruence sums S_d.

    ``sets_by_prime`` maps each support prime to its SievingSet.  With
    b = None the coefficients are the full Moebius weights and
    lower = exact = upper.  ``F`` maps a point to an integer vector with the
    sieving sets' dimension; another length or a non-integer raises ValueError.
    """
    from fractions import Fraction

    from .sieve import local_density  # here only, so goodred loads no sieve

    primes = sorted(support.primes)
    for p in primes:
        if p not in sets_by_prime:
            raise ValueError(f"missing sieving set for support prime {p}")
    n = len(X)
    masks = _hit_masks(X, F, [sets_by_prime[p] for p in primes])

    H = Fraction(n)
    densities = {p: local_density(sets_by_prime[p]) for p in primes}
    full = (1 << n) - 1

    upper_w, lower_w = (brun_coefficients(primes, b, sign) for sign in ("upper", "lower"))
    # sum lambda_d S_d and sum |S_d - nu_d H| over each sign's d
    upper = lower = r_plus = r_minus = Fraction(0)
    for d, factors in squarefree_products(primes):
        if d not in upper_w and d not in lower_w:
            continue
        m, nu_d = full, Fraction(1)
        for p in factors:
            m &= masks[p]
            nu_d *= densities[p]
        Sd = m.bit_count()
        remainder = abs(Fraction(Sd) - nu_d * H)
        if d in upper_w:
            upper += upper_w[d] * Sd
            r_plus += remainder
        if d in lower_w:
            lower += lower_w[d] * Sd
            r_minus += remainder

    main = H
    for p in primes:
        main *= 1 - densities[p]

    hit_any = 0
    for p in primes:
        hit_any |= masks[p]
    exact = (full & ~hit_any).bit_count()
    if not lower <= exact <= upper:
        raise AssertionError("sandwich violated: the Bonferroni inequalities fail")
    return SandwichReport(main, lower, upper, r_plus, r_minus, exact)


def _hit_masks(X, F, sets):
    """Per-prime bitsets (Python ints, bit i for X[i]) of the points whose
    image F(u) reduces into the prime's Omega_p.

    F is called once per point.  The masks are kept with a tuple snapshot
    of the images and sets, never hashed.  A repeat call whose images are the
    very tuples of the snapshot, checked when it was stored, and whose sets
    are equal (the sandwich at another depth) reuses them unchecked; equal
    images that are other objects are checked first, block by block
    (``_check_images``); on a miss, ``_masks`` checks them and builds the masks.
    """
    if not sets:
        return {}
    dim = sets[0].dim
    if any(s.dim != dim for s in sets):
        raise ValueError("sieving sets of different dimensions")
    images, sets = tuple(map(F, X)), tuple(sets)
    last, masks = _last  # one read, so another thread's call cannot split the pair
    same = (last is not None and last[1] == sets and len(last[0]) == len(images)
            and all(map(operator.is_, images, last[0])))
    if not same:
        key = tuple(map(tuple, images)), sets
        del images  # the snapshot alone stays during the mask build
        if last == key:
            for start in range(0, len(key[0]), _BLOCK):
                _check_images(key[0][start:start + _BLOCK], dim)
        else:
            _last[:] = key, (masks := _masks(*key))
    return dict(masks)


_last = [None, ()]  # the (images, sets) key of the last _hit_masks call, and its masks
_BITS = bytes.maketrans(b"\0\1", b"01")
_BLOCK = 4096  # images per block, so that the columns and words of a block stay small


def _masks(images, sets):
    """((p, mask), ...) for _hit_masks, in one loop over blocks of _BLOCK
    images, each checked and split into columns by ``_check_images``.

    The sets with p^dim <= 256 share one pass per column: each distinct
    value v of column k maps once to a word of one byte per such set, byte j
    holding (v mod p_j) p_j^(dim-1-k).  A block's words, joined per column
    and read by int.from_bytes, add without a carry into each point's
    mixed-radix residue code per byte, and a strided slice through a 256-byte
    indicator of Omega_p gives a set's digits.  Other sets look each residue
    tuple of the block's columns up in Omega_p.  The digits, b"0" or b"1" per
    point and read as binary, give the mask.
    """
    dim = sets[0].dim
    hits = [bytearray() for _ in sets]
    lanes = [(s, hit, bytes(b"01"[w in s.residues] for w in itertools.product(
        range(s.p), repeat=dim)).ljust(256, b"0")) for s, hit in zip(sets, hits) if s.p**dim <= 256]
    big = [(s, hit) for s, hit in zip(sets, hits) if s.p**dim > 256]
    words = [{} for _ in range(dim)]
    for start in range(0, len(images), _BLOCK):
        block = images[start:start + _BLOCK]
        columns, values = _check_images(block, dim)
        total = 0
        for k, (col, word) in enumerate(zip(columns, words)):
            for v in values[k] - word.keys():
                word[v] = bytes(v % s.p * s.p ** (dim - 1 - k) for s, _, _ in lanes)
            total += int.from_bytes(b"".join(map(word.__getitem__, col)), "little")
        codes = total.to_bytes(len(lanes) * len(block), "little")
        for j, (s, hit, omega) in enumerate(lanes):
            hit += codes[j::len(lanes)].translate(omega)
        for s, hit in big:
            reduced = [map(operator.mod, col, itertools.repeat(s.p)) for col in columns]
            hit += bytes(map(s.residues.__contains__, zip(*reduced))).translate(_BITS)
    return tuple((s.p, int(b"0" + hit[::-1], 2)) for s, hit in zip(sets, hits))


def _check_images(images, dim):
    """(coordinate columns as lists, each column's distinct values as ints),
    once every image is checked to have dim coordinates, all integers
    (``operator.index`` on every coordinate), else ValueError."""
    if wrong := set(map(len, images)) - {dim}:
        raise ValueError(f"F gave {min(wrong)} coordinates, the sieving sets have {dim}")
    columns = [list(map(operator.itemgetter(k), images)) for k in range(dim)]
    try:
        return columns, [set(map(operator.index, col)) for col in columns]
    except TypeError:
        raise ValueError("F gave a non-integer coordinate") from None


C_AUDIT = 8.0  # the constant of the remainder audit's bound


RemainderAudit = namedtuple("RemainderAudit", "d x r measured bound ok")
RemainderAudit.__doc__ = """The remainder at modulus d: ``measured`` is the Fraction
r_d = |{u in B(x): u mod d in Omega_d}| - nu_d |B(x)|, ``bound`` the float
C_AUDIT * |B(x)| * relative-error shape (see ``lattice_remainder_audit``)."""


def lattice_remainder_audit(d, omega_d, x, r):
    """Measure the congruence remainder over the lattice ball [-x, x]^{r+1}.

    The remainder lemma lives on the full lattice ball, not on the primitive
    point set (which carries a constant-order congruence bias).  A residue
    tuple w in [0, d)^{r+1} is hit by prod_i N(w_i) vectors, N(c) the number
    of v in [-x, x] with v = c mod d; other tuples are never hit.  Shape of
    the relative error: d^2 log x / x when r = 1, else d^{r+1} / x (field
    degree 1 throughout; d here is the modulus).
    """
    from fractions import Fraction

    B = (2 * x + 1) ** (r + 1)
    if d == 1:
        return RemainderAudit(1, x, r, Fraction(0), 0.0, True)
    hit = 0
    for w in omega_d:
        if len(w) == r + 1 and all(0 <= c < d for c in w):
            hit += math.prod((x - c) // d - (-x - 1 - c) // d for c in w)
    nu_d = Fraction(len(omega_d), d ** (r + 1))
    measured = Fraction(hit) - nu_d * B
    if r == 1:
        shape = d * d * math.log(x) / x if x > 1 else float(d * d)
    else:
        shape = d ** (r + 1) / x
    bound = C_AUDIT * B * shape
    return RemainderAudit(d, x, r, measured, bound, abs(measured) <= bound)


class GoodReductionCensus(namedtuple("GoodReductionCensus",
                                     "x Q count floor_estimate kappa support")):
    """The good-reduction count of B(x) over the support primes below Q;
    ``floor_estimate`` is x^{r+1} / (log Q)^kappa."""

    __slots__ = ()

    @property
    def ratio(self):
        return self.count / self.floor_estimate if self.floor_estimate else float("inf")


def good_reduction_census(family, x, Q):
    """Count B(x) points avoiding the bad-reduction locus mod every support prime.

    Support: primes p < Q not in the family's excluded set.  The condition is
    f(t) != 0 mod p with f the homogenized bad-locus polynomial; kappa = deg f.
    """
    if x < 1:
        raise ValueError("height bound must be >= 1")
    f = family.bad_locus.homogenize()
    if f.is_zero():
        raise ValueError("bad-reduction polynomial is zero")
    r = family.r
    kappa = f.degree()
    support = tuple(
        p for p in primes_below(int(Q)) if p not in family.excluded_primes
    )
    count = _census_bitset(f, r, x, support)
    floor = x ** (r + 1) / math.log(Q) ** kappa if Q > 1 else float("inf")
    return GoodReductionCensus(x, int(Q), count, floor, kappa, support)


def _census_bitset(f, r, x, support):
    """Count the canonical points (c : b) of P^r(Q) of height <= x, c the
    first r coordinates, with f(c, b) != 0 mod every support prime: each row
    of ``coprime_rows`` ANDed with the allowed row of c mod p for each p.
    f is evaluated once per point of P^r(F_p) (first nonzero coordinate 1),
    and each zero (c0 : b0) clears b = lambda b0 in the row of lambda c0,
    for lambda = 1 .. p - 1.  Allowed rows take sum_p p^r (2x + 1) / 8 bytes.
    """
    n = 2 * x + 1
    full = (1 << n) - 1
    tables = []
    for p in support:
        every = _every(p, n)
        cleared = [0] * p**r  # by the mixed-radix code of c mod p
        for lead in range(r + 1):  # the first nonzero coordinate, which is 1
            for tail in itertools.product(range(p), repeat=r - lead):
                point = (0,) * lead + (1, *tail)
                if f.eval_mod(point, p) == 0:
                    *c0, b0 = point
                    for lam in range(1, p):
                        code = 0
                        for v in c0:
                            code = code * p + lam * v % p
                        cleared[code] |= every << (lam * b0 + x) % p
        tables.append((p, [full & ~m for m in cleared]))
    count = 0
    for c, m in coprime_rows(r, x):
        for p, rows in tables:
            code = 0
            for v in c:
                code = code * p + v % p
            m &= rows[code]
        count += m.bit_count()
    return count


def density_condition_check(densities, w, Q, kappa, C):
    """Verify prod_{w<=p<Q} (1-nu_p)^{-1} <= C (log Q / log w)^kappa.

    Returns (holds, measured_left_side).  ``densities`` maps primes to nu_p.
    """
    if not 2 <= w <= Q:
        raise ValueError("need 2 <= w <= Q")
    from fractions import Fraction

    lhs = Fraction(1)
    for p, nu in densities.items():
        if w <= p < Q:
            lhs /= 1 - Fraction(nu)
    if w == Q:
        return True, lhs
    rhs = C * (math.log(Q) / math.log(w)) ** kappa
    return float(lhs) <= rhs, lhs


def implied_s_threshold(kappa, C):
    """The sandwich theorem's s-threshold for a measured envelope constant C."""
    return 9 * kappa + 1 + 10 * math.log(C)
