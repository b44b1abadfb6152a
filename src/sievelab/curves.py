"""Specialization of elliptic and genus-2 families, Frobenius traces, class tags.

Point counting is exhaustive (O(p) character sums for g=1, O(p^2) via an
explicit quadratic extension for g=2) with desk-scale prime caps; Schoof-type
algorithms are out of scope.  ``ap_table`` gives a_p at every residue t mod p
of a g=1 family in O(p log p): a twist moves each curve onto one of three
one-parameter rows (j = 0, j = 1728, and y^2 = x^3 + cx + c), and each row is
one FFT correlation of the quadratic character with a weighted value count.
Good reduction uses the crude divisibility criterion on the discriminant, not
minimal models.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .finitefield import _prime_divisors
from .polynomials import Poly

PRIME_CAP_G1 = 10**4
PRIME_CAP_G2 = 300


@dataclass(frozen=True)
class CurveFamily:
    """A 1- or 3-parameter family: y^2 = x^3 + A(t)x + B(t) (g=1) or
    y^2 = quintic(x; t1,t2,t3) (g=2, monic)."""

    genus: int
    A: Poly  # g=1 only
    B: Poly  # g=1 only
    quintic: tuple  # g=2 only: 6 Polys, ascending in x, leading == 1
    bad_locus: Poly
    excluded_primes: frozenset

    @property
    def r(self):
        return self.genus * (self.genus + 1) // 2

    def family_id(self):
        return hashlib.sha1(self.to_json().encode()).hexdigest()[:12]

    def to_json(self):
        doc = {
            "genus": self.genus,
            "bad_locus": self.bad_locus.to_terms(),
            "excluded_primes": sorted(self.excluded_primes),
        }
        if self.genus == 1:
            doc["A"] = self.A.to_terms()
            doc["B"] = self.B.to_terms()
        else:
            doc["quintic"] = [c.to_terms() for c in self.quintic]
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse a family document; ValueError on a malformed one."""
        doc = json.loads(text)
        g = doc["genus"]
        if g not in (1, 2):
            raise ValueError("genus must be 1 or 2")
        r = g * (g + 1) // 2
        bad = _poly_from_terms(doc["bad_locus"], "bad_locus", r)
        if bad.is_zero():
            raise ValueError("bad_locus must be nonzero")
        excl = doc["excluded_primes"]
        if not isinstance(excl, list) or not all(_is_int(p) for p in excl):
            raise ValueError("excluded_primes must be a list of integers")
        if g == 1:
            A = _poly_from_terms(doc["A"], "A", 1)
            B = _poly_from_terms(doc["B"], "B", 1)
            return cls(1, A, B, (), bad, frozenset(excl))
        quintic = tuple(_poly_from_terms(t, "quintic", r) for t in doc["quintic"])
        return cls(2, None, None, quintic, bad, frozenset(excl))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _poly_from_terms(terms, key, r):
    """A polynomial from terms [coefficient, e_1, .., e_r], all integers,
    exponents >= 0."""
    if not isinstance(terms, list) or not all(
        isinstance(t, list) and len(t) == r + 1 and all(_is_int(v) for v in t)
        and min(t[1:]) >= 0
        for t in terms
    ):
        raise ValueError(f"{key}: each term must be [integer coefficient, "
                         f"{r} non-negative integer exponents]")
    return Poly.from_terms(r, terms)


def default_elliptic_family():
    """y^2 = x^3 + 3(1-t)t x + 2(1-t)^2 t with bad locus t(1-t); 2, 3 excluded."""
    t = Poly.var(1, 0)
    A = 3 * (1 - t) * t
    B = 2 * (1 - t) ** 2 * t
    return CurveFamily(1, A, B, (), t * (1 - t), frozenset({2, 3}))


def default_genus2_family():
    """y^2 = x(x-1)(x-t1)(x-t2)(x-t3), Rosenhain-style 3-parameter family."""
    t1, t2, t3 = (Poly.var(3, i) for i in range(3))
    one = Poly.const(3, 1)
    # expand prod (x - root): coefficients in x as Polys in t
    roots = [Poly.const(3, 0), one, t1, t2, t3]
    coeffs = [one]  # poly "1" in x
    for rt in roots:
        new = [Poly.const(3, 0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] = new[k + 1] + c
            new[k] = new[k] - rt * c
        coeffs = new
    bad = t1 * t2 * t3 * (t1 - 1) * (t2 - 1) * (t3 - 1) * (t1 - t2) * (t1 - t3) * (t2 - t3)
    return CurveFamily(2, None, None, tuple(coeffs), bad, frozenset({2}))


@dataclass(frozen=True)
class Specialization:
    family: CurveFamily
    t: tuple  # Fractions, length r
    A: Fraction  # g=1
    B: Fraction  # g=1
    quintic: tuple  # g=2: Fractions c0..c5
    delta: Fraction  # g=1 only (g=2 uses per-prime squarefree checks)
    j: Fraction  # g=1 only


def specialize(family, t):
    t = tuple(Fraction(v) for v in t)
    if family.bad_locus(*t) == 0:
        raise ValueError("outside etale locus")
    if family.genus == 1:
        A = family.A(*t)
        B = family.B(*t)
        delta = -16 * (4 * A**3 + 27 * B**2)
        if delta == 0:
            raise ValueError("outside etale locus")
        j = 6912 * A**3 / (4 * A**3 + 27 * B**2)
        return Specialization(family, t, A, B, (), delta, j)
    quintic = tuple(c(*t) for c in family.quintic)
    return Specialization(family, t, None, None, quintic, None, None)


def _denominators(s):
    if s.family.genus == 1:
        return (s.A.denominator, s.B.denominator)
    return tuple(c.denominator for c in s.quintic)


def _quintic_mod_p(s, p):
    return [c.numerator * pow(c.denominator, -1, p) % p for c in s.quintic]


def _squarefree_mod_p(coeffs, p):
    """gcd(f, f') = 1 in F_p[x] for a monic-degree-5 coefficient list."""
    f = [c % p for c in coeffs]
    fp = [(k * c) % p for k, c in enumerate(f)][1:]

    def strip(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = strip(list(f)), strip(list(fp))
    while b:
        # a mod b
        a = list(a)
        while len(a) >= len(b):
            inv = pow(b[-1], -1, p)
            coef = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * c) % p
            strip(a)
        a, b = b, a
    return len(a) == 1  # unit gcd


def reduction_type(s, p):
    """'good' or 'bad' by the crude divisibility criterion."""
    if p in s.family.excluded_primes:
        return "bad"
    if any(d % p == 0 for d in _denominators(s)):
        return "bad"
    if s.family.genus == 1:
        return "bad" if s.delta.numerator % p == 0 else "good"
    if p == 2:
        return "bad"
    return "good" if _squarefree_mod_p(_quintic_mod_p(s, p), p) else "bad"


def _legendre_table(p):
    """chi[v] in {-1, 0, 1} for v in Z/p."""
    chi = [-1] * p
    chi[0] = 0
    for y in range(1, p):
        chi[y * y % p] = 1
    return chi


def ap_count(s, p):
    """a_p = -sum_x chi(x^3 + Ax + B) over F_p (character-sum route)."""
    _require_good(s, p)
    if p > PRIME_CAP_G1:
        raise ValueError("prime cap exceeded")
    a = s.A.numerator * pow(s.A.denominator, -1, p) % p
    b = s.B.numerator * pow(s.B.denominator, -1, p) % p
    chi = _legendre_table(p)
    total = 0
    for x in range(p):
        total += chi[(x * x % p * x + a * x + b) % p]
    ap = -total
    if ap * ap > 4 * p:
        raise AssertionError("Hasse bound violated")
    return ap


def ap_count_pointloop(s, p):
    """Independent oracle: a_p = p + 1 - #E with #E by full (x, y) enumeration."""
    _require_good(s, p)
    a = s.A.numerator * pow(s.A.denominator, -1, p) % p
    b = s.B.numerator * pow(s.B.denominator, -1, p) % p
    n = 1  # point at infinity
    for x in range(p):
        rhs = (x * x % p * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                n += 1
    return p + 1 - n


def _require_good(s, p):
    if reduction_type(s, p) != "good":
        raise ValueError("bad reduction")


def genus2_counts(s, p):
    """(n1, n2) = (#C(F_p), #C(F_{p^2})) for the hyperelliptic quintic model."""
    from .finitefield import ExtField

    if p == 2:
        raise ValueError("p = 2 unsupported")
    _require_good(s, p)
    if p > PRIME_CAP_G2:
        raise ValueError("prime cap exceeded")
    coeffs = _quintic_mod_p(s, p)
    chi = _legendre_table(p)
    n1 = p + 1  # one point at infinity for deg 5
    for x in range(p):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % p
        n1 += chi[v]
    fld = ExtField.quadratic(p)
    nsq = fld.sqrt_counts()
    n2 = 1
    cf = [fld.from_int(c) for c in coeffs]
    for x in fld.elements():
        v = fld.zero
        for c in reversed(cf):
            v = fld.add(fld.mul(v, x), c)
        n2 += nsq[v]
    a1 = p + 1 - n1
    if a1 * a1 > 16 * p:
        raise AssertionError("Weil bound violated")
    twice_a2 = a1 * a1 - (p * p + 1 - n2)
    if twice_a2 % 2:
        raise AssertionError("a2 parity identity violated")
    return n1, n2


def frobenius_invariants(s, p):
    """(a1, a2) from the zeta data; g=1 gives (a_p,), g=2 gives (a1, a2)."""
    if s.family.genus == 1:
        return (ap_count(s, p),)
    n1, n2 = genus2_counts(s, p)
    a1 = p + 1 - n1
    a2 = (a1 * a1 - (p * p + 1 - n2)) // 2
    return (a1, a2)


def _generates_units(values, l):
    """The values generate F_l^x iff, for every prime r | l - 1, some value
    is not an r-th power, i.e. v^((l - 1)/r) != 1."""
    units = {v % l for v in values if v % l}
    return all(any(pow(v, (l - 1) // r, l) != 1 for v in units) for r in _prime_divisors(l - 1))


def surjectivity_verdict(classes, l, g):
    """'surjective' or 'undecided' from observed char-poly classes.

    g=1, l >= 5: Serre's witness criterion (Invent. Math. 15, 1972, §2.8,
    Prop. 19): split and nonsplit Cartan elements with nonzero trace, full
    determinant image, and the exceptional-image excluder; a 'surjective'
    verdict certifies the subgroup generated by the observed semisimple
    classes is GL2(F_l).  'undecided' is never a non-surjectivity claim.
    g=1, l = 3: always 'undecided'; the three 2-Sylow subgroups of GL2(F_3)
    (order 16) meet all six (tr, det) classes, so char-poly data cannot
    certify surjectivity mod 3.  g=2: statistics only.
    """
    if g == 2 or l == 3:
        return "undecided"
    if l < 5:
        raise ValueError("need l >= 3")
    classes = set(classes)
    squares = {x * x % l for x in range(1, l)}
    if not _generates_units([d for _, d in classes], l):
        return "undecided"
    # Cartan witnesses need tr != 0: split iff the discriminant is a nonzero
    # square, nonsplit iff it is a nonsquare
    discs = {(tr * tr - 4 * d) % l for tr, d in classes if tr != 0}
    has_split = bool(discs & squares)
    has_nonsplit = any(v and v not in squares for v in discs)

    def u_ok(tr, d):
        u = tr * tr * pow(d, -1, l) % l
        return u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % l != 0
    has_exceptional_excluder = any(u_ok(tr, d) for tr, d in classes)
    if has_split and has_nonsplit and has_exceptional_excluder:
        return "surjective"
    return "undecided"


def _eval_all_mod(poly, x, p):
    """poly(x) mod p elementwise by numpy Horner (univariate, integer
    coefficients)."""
    coeffs = [0] * (poly.degree() + 1)
    for (k,), c in poly.terms.items():
        if c.denominator != 1:
            raise ValueError("eval_mod needs integer coefficients")
        coeffs[k] = c.numerator % p
    v = np.zeros_like(x)
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


def ap_table(family, p):
    """a_p for every residue t mod p of a g=1 family, in O(p log p).

    With S(A, B) = sum_x chi(x^3 + Ax + B), the twist x -> wx gives
    S(A, B) = chi(w) S(A/w^2, B/w^3); w = B/A sends every curve with AB != 0
    to S(c, c), c = A^3/B^2.  The rows S(c, c), S(0, B) and S(A, 0) over all
    c, B, A are cyclic correlations of chi with weighted value counts, one
    FFT each, so no (p x p) grid is built.

    Returns an int64 array of length p with BAD_SENTINEL at residues where the
    specialization has bad reduction (discriminant vanishes mod p).
    """
    if family.genus != 1:
        raise ValueError("ap_table is g=1 only")
    x = np.arange(p, dtype=np.int64)
    A = _eval_all_mod(family.A, x, p)
    B = _eval_all_mod(family.B, x, p)
    chi = np.full(p, -1, dtype=np.int64)
    chi[0] = 0
    chi[x[1:] * x[1:] % p] = 1
    # inv[v] = v^(p-2): the inverse of every unit (Fermat)
    inv, base, e = np.ones_like(x), x, p - 2
    while e > 0:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    x3 = x * x % p * x % p
    # S(c, c) = chi(-1) + sum_{x != -1} chi(x + 1) chi(x^3/(x + 1) + c)
    y = x[1:]  # y = x + 1
    weights = np.stack([
        np.bincount(x3[:-1] * inv[y] % p, weights=chi[y], minlength=p),
        np.bincount(x3, minlength=p),  # S(0, B) = sum_u #{x^3 = u} chi(u + B)
        np.bincount(x * x % p, weights=chi, minlength=p),  # S(A, 0), x^3 + Ax = x (x^2 + A)
    ])
    # row[c] = sum_u w[u] chi(u + c mod p), read off a linear correlation with
    # chi repeated twice; a power-of-two length >= 2p avoids wrap-around
    n = 1 << (2 * p - 1).bit_length()
    fw = np.fft.rfft(weights, n)
    f = np.fft.irfft(np.conj(fw) * np.fft.rfft(np.tile(chi, 2), n), n)[:, :p]
    rows = np.rint(f).astype(np.int64)
    if np.abs(f - rows).max() >= 0.25:
        raise AssertionError("FFT rounding residue too large")
    generic, j0, j1728 = rows
    generic += chi[p - 1]
    A3 = A * A % p * A % p
    twisted = chi[B * inv[A] % p] * generic[A3 * inv[B] % p * inv[B] % p]
    a = -np.where(A == 0, j0[B], np.where(B == 0, j1728[A], twisted))
    good = -16 * (4 * A3 + 27 * (B * B % p)) % p != 0
    if np.any(a[good] ** 2 > 4 * p):
        raise AssertionError("Hasse bound violated")
    a[~good] = BAD_SENTINEL
    return a


BAD_SENTINEL = np.iinfo(np.int64).min
