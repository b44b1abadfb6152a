"""Exact per-curve oracles for the g = 1 and g = 2 layers.

A specialization over Q holds the curve's coefficients as Fractions; its
reduction type (for a quintic, sympy's squarefree test mod p), a_p (through
the square-root counts of F_p, and by a full (x, y) loop), its genus-2
counts and the surjectivity verdict of a class set are each computed one
curve or one set at a time, so that the batched paths of ``curves``,
``census`` and ``chebotarev`` can be compared with them.  The checks that
only the tests run sit at the end: Schanuel's constant, the containment of
the census's exceptional proxy in the class sieves, and the q^(-n/2)
deviation envelope of the Chebotarev reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from sympy import ZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_sqf_p

from sievelab.census import _reason_codes, _support_primes, _sweep, _trace_table
from sievelab.chebotarev import _quintic_counts
from sievelab.config import PCAP_LIMIT, CurveFamily, _check_x, _prime_divisors
from sievelab.finitefield import field
from sievelab.heights import affine_line_points


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
    f = gf_from_int_poly(_quintic_mod_p(s, p)[::-1], p)
    return "good" if gf_sqf_p(f, p, ZZ) else "bad"


def ap_count(s, p):
    """a_p = p - #{(x, y) in F_p^2 : y^2 = x^3 + Ax + B}, from the
    square-root counts of the field F_p (no FFT, unlike
    ``curves.ap_table``)."""
    _require_good(s, p)
    if p > PCAP_LIMIT:
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
    n1, n2 = _quintic_counts([[c] for c in _quintic_mod_p(s, p)], p)
    return n1[0], n2[0]


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


SCHANUEL_C1 = 12 / math.pi**2  # leading constant for r = 1


def exceptional_containment_check(family, x, l, pcap, Q):
    """Every census-undecided point survives at least one class sieve:
    the exceptional proxy sits inside the union of the Y_C.  Returns the
    number of undecided points and the (num, den) of those that fail."""
    _check_x(x)
    num, den = affine_line_points(x, family.bad_locus)
    undecided = _reason_codes(num, den, family, pcap, [l])[:, 0] != 0
    num, den = num[undecided], den[undecided]
    support = _support_primes(family, l, pcap, Q)
    # t survives the C-sieve for C = (tr0, 1) iff tr0 is never realized
    seen = _sweep(num, den, family, support, [_trace_table(l, tr) for tr in range(l)])
    failed = seen.all(axis=1)
    return len(num), list(zip(num[failed].tolist(), den[failed].tolist()))


def envelope_check(censuses):
    """(c_emp, per-n pass list): deviation(n) <= c_emp q^{-(n-n0)/2}."""
    if not censuses or censuses[0].deviation is None:
        raise ValueError("no deviations to check")
    n0 = censuses[0].n
    c_emp = float(censuses[0].deviation)
    q = censuses[0].q
    results = []
    for c in censuses:
        bound = c_emp * q ** (-(c.n - n0) / 2)
        results.append((c.n, float(c.deviation), bound, float(c.deviation) <= bound + 1e-12))
    return c_emp, results
