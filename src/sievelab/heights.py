"""Heights on P^r(Q) and exhaustive enumeration of points of bounded height.

Everything here is over Q, where the height of a projective point is the max
absolute value of its primitive integer coordinates.  Canonical representatives
live in the fundamental domain "gcd 1, first nonzero coordinate positive"; over
Q the ball radius in the lattice picture is exactly the height bound x, so no
radius constant appears (a d > 1 port would have to revisit that).
"""

from __future__ import annotations

import collections
import gc
import itertools
import math
from fractions import Fraction

from .config import smallest_prime_factors

SCHANUEL_C1 = 12 / math.pi**2  # leading constant for r = 1


class ProjectivePoint:
    """Primitive, sign-normalized integer coordinates of a point of P^r(Q):
    immutable, equal and hashed by ``coords``.  One slot and no tuple
    header keep each point at 40 bytes, 8 fewer than a named 1-tuple."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        if not any(coords):
            raise ValueError("not a projective point")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return f"ProjectivePoint(coords={self.coords!r})"


def enumerate_projective(r, x):
    """All canonical points of P^r(Q) with height <= x, in lexicographic order.

    The tails (last r coordinates) of the box [-x, x]^{r+1} form one lex-ordered
    block; each head c0 in 0..x keeps the tails with gcd(c0, gcd(tail)) = 1 by
    a mask of one byte per tail: 0 those of gcd 1 in the upper half (first
    nonzero coordinate positive), a prime those whose gcd it does not divide,
    any other c0 the AND of the masks of p = spf(c0) and c0 / p.  Every point
    shares the int objects of one tuple of coordinate values.  C allocates
    the points and sets their slot, past ``__init__`` (no tuple here is zero),
    with the cyclic garbage collector paused and then restored as it was.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    x = int(x)
    if x < 1:
        raise ValueError("height bound must be >= 1")
    vals = tuple(range(-x, x + 1))
    n = len(vals) ** r
    by_gcd = [bytearray(n) for _ in range(x + 1)]  # by_gcd[g]: a 1 for each tail of gcd g
    for i, g in enumerate(itertools.starmap(math.gcd, itertools.product(vals, repeat=r))):
        by_gcd[g][i] = 1
    by_gcd = [int.from_bytes(m, "big") for m in by_gcd]
    keep = [by_gcd[1] % 256 ** (n // 2), sum(by_gcd)]  # heads 0 (the upper half) and 1
    for c0, q in enumerate(smallest_prime_factors(x)[2:], 2):  # q the least prime factor
        keep.append(keep[1] - sum(by_gcd[::q]) if q == c0 else keep[q] & keep[c0 // q])
    enabled = gc.isenabled()
    gc.disable()  # the points hold tuples of ints only: no cycle can form
    try:
        coords = []
        for head in vals[x:]:
            tuples = itertools.product((head,), *(vals,) * r)
            coords += itertools.compress(tuples, keep[head].to_bytes(n, "big"))
        del by_gcd, keep  # not held while the points are allocated
        out = list(map(object.__new__, itertools.repeat(ProjectivePoint, len(coords))))
        collections.deque(map(ProjectivePoint.coords.__set__, out, coords), maxlen=0)
    finally:
        if enabled:
            gc.enable()
    return out


def count_projective(r, x):
    """|B(x)| in closed form, without enumerating points.

    Moebius inversion over the common divisor d of the nonzero vectors of
    [-x, x]^{r+1}, halved for the sign:
    |B(x)| = sum_{d <= x} mu(d) ((2 floor(x/d) + 1)^{r+1} - 1) / 2.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    x = int(x)
    if x < 1:
        raise ValueError("height bound must be >= 1")
    mu = mobius(x)
    return sum(mu[d] * ((2 * (x // d) + 1) ** (r + 1) - 1) // 2 for d in range(1, x + 1) if mu[d])


def mobius(n):
    """List of mu(k) for 0 <= k <= max(n, 1) (mu(0) = 0), from the least
    prime factor: mu(k) = 0 if p^2 | k, else -mu(k / p), with p = spf(k)."""
    spf = smallest_prime_factors(n)
    mu = [0, 1] + [0] * (len(spf) - 2)
    for k in range(2, len(spf)):
        p = spf[k]
        rest = k // p
        mu[k] = 0 if rest % p == 0 else -mu[rest]
    return mu


def affine_line_points(x, bad_locus):
    """All t = num/den in A^1(Q) with height max(|num|, den) <= x and
    bad_locus(t) != 0, as int64 arrays ordered by den, then num.

    These are the canonical points (den : num) of P^1(Q) with den > 0, in
    the order of ``enumerate_projective``.  The bad locus is removed
    exactly through its rational roots, so no value of it is formed in
    fixed-width integers.
    """
    if bad_locus.is_zero():
        raise ValueError("bad locus must be a nonzero polynomial")
    import numpy as np

    den, num = np.divmod(np.arange(x * (2 * x + 1)), 2 * x + 1)
    den, num = den + 1, num - x
    keep = np.gcd(num, den) == 1
    for n, d in _rational_roots(bad_locus, x):
        keep &= (num != n) | (den != d)
    return num[keep], den[keep]


def _rational_roots(poly, x):
    """The roots n/d (lowest terms, d > 0) of a nonzero univariate
    polynomial with max(|n|, d) <= x.  With the factor t^k removed, n
    divides the lowest coefficient and d the leading one (rational root
    theorem); each candidate is checked in exact rationals."""
    low, top = poly.terms[min(poly.terms)], poly.terms[max(poly.terms)]
    roots = [(0, 1)] if min(poly.terms) > (0,) else []
    nums = [n for n in range(1, x + 1) if low % n == 0]
    for d in range(1, x + 1):
        if top % d == 0:
            roots += [(s, d) for n in nums if math.gcd(n, d) == 1
                      for s in (n, -n) if poly(Fraction(s, d)) == 0]
    return roots
