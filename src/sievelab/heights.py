"""Heights on P^r(Q) and exhaustive enumeration of points of bounded height.

Everything here is over Q, where the height of a projective point is the max
absolute value of its primitive integer coordinates.  Canonical representatives
live in the fundamental domain "gcd 1, first nonzero coordinate positive"; over
Q the ball radius in the lattice picture is exactly the height bound x, so no
radius constant appears (a d > 1 port would have to revisit that).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

SCHANUEL_C1 = 12 / math.pi**2  # leading constant for r = 1


@dataclass(frozen=True)
class ProjectivePoint:
    """Primitive, sign-normalized integer coordinates of a point of P^r(Q)."""

    coords: tuple

    def __post_init__(self):
        if not any(self.coords):
            raise ValueError("not a projective point")

    @property
    def r(self):
        return len(self.coords) - 1

    def to_json(self):
        return list(self.coords)


@dataclass(frozen=True)
class AffinePoint:
    """Rational point of A^r(Q); coordinates stored as Fractions in lowest terms."""

    coords: tuple

    @property
    def r(self):
        return len(self.coords)

    def to_json(self):
        return [[c.numerator, c.denominator] for c in self.coords]


def canonicalize(raw):
    """Unique primitive, sign-normalized representative of a projective point."""
    coords = tuple(int(c) for c in raw)
    if not any(coords):
        raise ValueError("not a projective point")
    g = 0
    for c in coords:
        g = math.gcd(g, c)
    coords = tuple(c // g for c in coords)
    for c in coords:
        if c:
            if c < 0:
                coords = tuple(-v for v in coords)
            break
    return ProjectivePoint(coords)


def height(p):
    """Absolute height over Q: max |coordinate| of the primitive representative."""
    return max(abs(c) for c in p.coords)


class DefaultChart:
    """The chart (t_1, ..., t_r) -> (d : n_1 : ... : n_r) with common denominator d."""

    def to_projective(self, t):
        coords = [Fraction(c) for c in t.coords]
        d = 1
        for c in coords:
            d = d * c.denominator // math.gcd(d, c.denominator)
        return canonicalize((d, *(int(c * d) for c in coords)))

    def from_projective(self, p):
        """Inverse on the locus u0 != 0; raises off the chart."""
        if p.coords[0] == 0:
            raise ValueError("chart undefined here")
        u0 = p.coords[0]
        return AffinePoint(tuple(Fraction(c, u0) for c in p.coords[1:]))


DEFAULT_CHART = DefaultChart()


def height_affine(t, chart=DEFAULT_CHART):
    return height(chart.to_projective(t))


def _first_nonzero_positive(coords):
    for c in coords:
        if c:
            return c > 0
    return False


def enumerate_projective(r, x):
    """All canonical points of P^r(Q) with height <= x, in lexicographic order."""
    if r < 1:
        raise ValueError("r must be >= 1")
    x = int(x)
    if x < 1:
        raise ValueError("height bound must be >= 1")
    out = []
    gcd = math.gcd
    for coords in itertools.product(range(-x, x + 1), repeat=r + 1):
        if not _first_nonzero_positive(coords):
            continue
        g = 0
        for c in coords:
            g = gcd(g, c)
        if g == 1:
            out.append(ProjectivePoint(coords))
    return out


def count_projective(r, x):
    """|B(x)| without materializing points (same loop, count only)."""
    return len(enumerate_projective(r, x))


def enumerate_affine(r, x, chart=DEFAULT_CHART, bad_locus=None):
    """All t in A^r(Q) with chart height <= x and bad_locus(t) != 0.

    Derived from the projective enumeration: the default chart hits exactly
    the canonical points with u0 > 0.  Deterministic order inherited.
    """
    if bad_locus is not None and bad_locus.is_zero():
        raise ValueError("bad locus must be a nonzero polynomial")
    out = []
    for p in enumerate_projective(r, x):
        if p.coords[0] == 0:
            continue
        t = chart.from_projective(p)
        if bad_locus is not None and bad_locus(*t.coords) == 0:
            continue
        out.append(t)
    return out


@dataclass(frozen=True)
class SchanuelReport:
    r: int
    x: int
    count: int
    main_term: float
    deviation: float  # |count - main| / (x log x) for r=1; count/x^{r+1} otherwise


def schanuel_check(r, x):
    """Compare the exact count against the leading-term growth c_r x^{r+1}."""
    if r not in (1, 2, 3):
        raise ValueError("r must be in {1, 2, 3}")
    count = count_projective(r, x)
    if r == 1:
        main = SCHANUEL_C1 * x * x
        dev = abs(count - main) / (x * math.log(x)) if x > 1 else abs(count - main)
        return SchanuelReport(r, x, count, main, dev)
    ratio = count / x ** (r + 1)
    return SchanuelReport(r, x, count, float("nan"), ratio)
