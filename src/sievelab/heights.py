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

from .config import coprime_rows, primes_below, squarefree_products

SCHANUEL_C1 = 12 / math.pi**2  # leading constant for r = 1
_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits to the bytes compress reads


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

    Each row of ``config.coprime_rows``, one byte per last coordinate,
    compresses the product of its prefix with [-x, x]; every point shares
    the int objects of one tuple of coordinate values.  C allocates the
    points and sets their slot, past ``__init__`` (no tuple here is zero),
    with the cyclic garbage collector paused and then restored as it was.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    x = int(x)
    if x < 1:
        raise ValueError("height bound must be >= 1")
    vals = tuple(range(-x, x + 1))
    enabled = gc.isenabled()
    gc.disable()  # the points hold tuples of ints only: no cycle can form
    try:
        coords = []
        for c, row in coprime_rows(r, x):
            flags = bin(row)[:1:-1].ljust(len(vals), "0").encode().translate(_FLAGS)
            head = [(vals[v + x],) for v in c]  # the shared ints, not the product's
            coords += itertools.compress(itertools.product(*head, vals), flags)
        out = list(map(object.__new__, itertools.repeat(ProjectivePoint, len(coords))))
        collections.deque(map(ProjectivePoint.coords.__set__, out, coords), maxlen=0)
    finally:
        if enabled:
            gc.enable()
    return out


def count_projective(r, x):
    """|B(x)| in closed form, without enumerating points.

    Moebius inversion over the common divisor d of the nonzero vectors of
    [-x, x]^{r+1}, halved for the sign, on ``config``'s squarefree walk:
    |B(x)| = sum_{d <= x} mu(d) ((2 floor(x/d) + 1)^{r+1} - 1) / 2.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    x = int(x)
    if x < 1:
        raise ValueError("height bound must be >= 1")
    return sum((-1) ** len(f) * ((2 * (x // d) + 1) ** (r + 1) - 1) // 2
               for d, f in squarefree_products(primes_below(x + 1), x))


def affine_line_points(x, bad_locus):
    """All t = num/den in A^1(Q) with height max(|num|, den) <= x and
    bad_locus(t) != 0, as int64 arrays ordered by den, then num.

    These are the canonical points (den : num) of P^1(Q) with den > 0, in
    the order of ``enumerate_projective``: the rows of ``coprime_rows`` for
    den = 1 .. x, unpacked into one bit per num.  The bad locus is removed
    exactly through its rational roots, so no value of it is formed in
    fixed-width integers.
    """
    if bad_locus.is_zero():
        raise ValueError("bad locus must be a nonzero polynomial")
    import numpy as np

    rows = itertools.islice(coprime_rows(1, x), 1, None)  # past c = 0, the point at infinity
    packed = b"".join(row.to_bytes(x // 4 + 1, "little") for _, row in rows)
    bits = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little").reshape(x, -1)
    for n, d in _rational_roots(bad_locus, x):
        bits[d - 1, n + x] = 0
    den, num = np.nonzero(bits)
    return num - x, den + 1


def _rational_roots(poly, x):
    """The roots n/d (lowest terms, d > 0) of a nonzero univariate
    polynomial with max(|n|, d) <= x.  With the factor t^k removed, n
    divides the lowest coefficient and d the leading one (rational root
    theorem); each candidate s/d is checked in exact integers, as
    d^deg poly(s/d) = sum_e c_e s^e d^(deg - e) = 0."""
    low, top = poly.terms[min(poly.terms)], poly.terms[max(poly.terms)]
    roots = [(0, 1)] if min(poly.terms) > (0,) else []
    nums = [n for n in range(1, x + 1) if low % n == 0]
    deg = poly.degree()
    for d in range(1, x + 1):
        if top % d == 0:
            roots += [(s, d) for n in nums if math.gcd(n, d) == 1 for s in (n, -n)
                      if sum(c * s**e * d ** (deg - e) for (e,), c in poly.terms.items()) == 0]
    return roots
