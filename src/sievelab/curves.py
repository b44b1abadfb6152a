"""Specialization of elliptic and genus-2 families, Frobenius traces, class tags.

Point counting is exhaustive, with desk-scale prime caps: O(p) for g=1 and
O(p^2) for g=2, as gathers of the square-root counts of F_p and F_{p^2} from
``finitefield``.  Schoof-type algorithms are out of scope.  ``ap_table``
gives a_p at every residue t mod p of a g=1 family in O(p log p): a twist
moves each curve onto one of three one-parameter rows (j = 0, j = 1728, and
y^2 = x^3 + cx + c), and each row is one FFT correlation of the quadratic
character with a weighted value count.  ``ap_sums`` gives the same values at
a few residues by direct character sums, in O(p) per residue.
Good reduction uses the crude divisibility criterion on the discriminant, not
minimal models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# the family documents live in the numpy-free config; callers import them from here
from .config import CurveFamily, _prime_divisors, default_elliptic_family, default_genus2_family
from .finitefield import field

PRIME_CAP_G1 = 10**4
PRIME_CAP_G2 = 300


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


def ap_count(s, p):
    """a_p = p - #{(x, y) in F_p^2 : y^2 = x^3 + Ax + B}, from the
    square-root counts of the field F_p (no FFT, unlike ``ap_table``)."""
    _require_good(s, p)
    if p > PRIME_CAP_G1:
        raise ValueError("prime cap exceeded")
    a = s.A.numerator * pow(s.A.denominator, -1, p) % p
    b = s.B.numerator * pow(s.B.denominator, -1, p) % p
    ap = p - field(p, 1).affine_points([b, a, 0, 1])
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
    if p == 2:
        raise ValueError("p = 2 unsupported")
    _require_good(s, p)
    return _quintic_counts(_quintic_mod_p(s, p), p)


def _quintic_counts(coeffs, p):
    """(n1, n2) for y^2 = quintic with coefficients mod an odd prime p,
    known to be squarefree; asserts the Weil bound and the a2 parity.

    Like ``ExtField.affine_points``, each coefficient is an int or a
    length-T array (one curve per row, counted in blocks of at most
    ``finitefield._BLOCK`` grid cells); n1 and n2 are then length-T int64
    arrays, and the asserts hold on every row.
    """
    if p > PRIME_CAP_G2:
        raise ValueError("prime cap exceeded")
    # one point at infinity for degree 5
    n1 = 1 + field(p, 1).affine_points(coeffs)
    n2 = 1 + field(p, 2).affine_points(coeffs)
    a1 = p + 1 - n1
    if np.any(a1 * a1 > 16 * p):
        raise AssertionError("Weil bound violated")
    twice_a2 = a1 * a1 - (p * p + 1 - n2)
    if np.any(twice_a2 % 2):
        raise AssertionError("a2 parity identity violated")
    return n1, n2


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


def _pow_mod(base, e, p):
    """base^e mod p elementwise by square-and-multiply (int64, p < 2^31)."""
    out, base = np.ones_like(base), base % p
    while e > 0:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def ap_table(family, p):
    """a_p for every residue t mod p of a g=1 family, in O(p log p).

    With S(A, B) = sum_x chi(x^3 + Ax + B), the twist x -> wx gives
    S(A, B) = chi(w) S(A/w^2, B/w^3); w = B/A sends every curve with AB != 0
    to S(c, c), c = A^3/B^2.  The rows S(c, c), S(0, B) and S(A, 0) over all
    c, B, A are cyclic correlations of chi with weighted value counts, one
    FFT each, so no (p x p) grid is built.

    Returns an int16 array of length p (|a_p| <= 2 sqrt(p) < 2^15) with
    BAD_SENTINEL at residues where the specialization has bad reduction
    (discriminant vanishes mod p).
    """
    x = np.arange(p, dtype=np.int64)
    A, B, chi = _coefficients(family, p, x)
    inv = _pow_mod(x, p - 2, p)  # the inverse of every unit (Fermat)
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
    return _traces(-np.where(A == 0, j0[B], np.where(B == 0, j1728[A], twisted)), A, B, p)


def ap_sums(family, p, t):
    """a_p at the residues t mod p (an int64 array of values in [0, p)) of a
    g=1 family, as ``ap_table(family, p)[t]``, by the character sums
    a_p(t) = -sum_x chi(x^3 + A(t)x + B(t)): one (len(t), p) pass, cheaper
    than the table for a few residues."""
    if p > PRIME_CAP_G1:
        raise ValueError("prime cap exceeded")
    A, B, chi = _coefficients(family, p, t)
    x = np.arange(p, dtype=np.int64)
    # chi over [0, 3p): Ax mod p + (x^3 mod p) + B stays below 3p, so one
    # reduction does, and int32 holds A x < p^2
    v = A.astype(np.int32)[:, None] * x.astype(np.int32)
    np.remainder(v, p, out=v)
    v += (x * x % p * x % p).astype(np.int32)
    v += B.astype(np.int32)[:, None]
    return _traces(-np.take(np.tile(chi, 3), v).sum(axis=1, dtype=np.int64), A, B, p)


def _coefficients(family, p, t):
    """(A(t), B(t), chi) of a g=1 family: its coefficients mod p at the
    int64 residues t, and the quadratic character of F_p as an int8 table
    with chi[0] = 0."""
    if family.genus != 1:
        raise ValueError("ap_table and ap_sums are g=1 only")
    A = np.broadcast_to(family.A.eval_mod((t,), p), t.shape)
    B = np.broadcast_to(family.B.eval_mod((t,), p), t.shape)
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    y = np.arange(1, p, dtype=np.int64)
    chi[y * y % p] = 1
    return A, B, chi


def _traces(a, A, B, p):
    """The sums a as int16 a_p: BAD_SENTINEL where the discriminant
    -16(4A^3 + 27B^2) vanishes mod p, the Hasse bound asserted elsewhere."""
    good = -16 * (4 * (A * A % p * A % p) + 27 * (B * B % p)) % p != 0
    if np.any(a[good] ** 2 > 4 * p):
        raise AssertionError("Hasse bound violated")
    a[~good] = BAD_SENTINEL
    return a.astype(np.int16)


BAD_SENTINEL = np.iinfo(np.int16).min
