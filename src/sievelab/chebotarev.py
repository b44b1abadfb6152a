"""Empirical function-field equidistribution census over F_q(t).

For a curve family over the t-line and an auxiliary prime l, measure the
distribution of char-poly classes of Frobenius over all good specializations
t in F_{q^n}, compare against the fixed-determinant coset densities (GL2
and GSp4 in closed form), and track the q^{-n/2} deviation envelope across
n.  Everything runs on Python lists and ints: point counts read as root
counts the sums of ``finitefield``'s kernel that also evaluates polynomials,
O(q^n) per elliptic curve, and for the genus-2 quintics, each checked
squarefree mod q by Euclid first, O(q^2) through F_q and F_{q^2}, with
q <= PRIME_CAP_G2.  ``finitefield`` is loaded only by the functions that
build a field, and ``groups`` only for the GSp4(F_l) predictions of
``genus2_census``.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, namedtuple
from fractions import Fraction

from .config import L_LIMIT, gl2_class_density, primes_below, sp_order
from .polynomials import _field_values

PRIME_CAP_G2 = 300


class FFieldCensus(namedtuple("FFieldCensus",
                              "q n l n_points frequencies predicted deviation warnings",
                              defaults=((),))):
    """Class frequencies over F_{q^n}: ``frequencies`` maps a class key
    (tr, det) or (a1, a2, mult) to a Fraction, ``predicted`` the same keys
    to a Fraction (None if unavailable), and ``deviation`` is the Fraction
    max |freq - predicted| (None without predictions)."""

    __slots__ = ()

    def to_json(self):
        def frtab(d):
            if d is None:
                return None
            return {str(k): f"{v.numerator}/{v.denominator}" for k, v in sorted(d.items())}

        return json.dumps(
            {
                "q": self.q,
                "n": self.n,
                "l": self.l,
                "n_points": self.n_points,
                "frequencies": frtab(self.frequencies),
                "predicted": frtab(self.predicted),
                "deviation": None if self.deviation is None else float(self.deviation),
                "warnings": list(self.warnings),
            },
            sort_keys=True,
        )


def ffield_specializations(family, q, n):
    """All t in (F_{q^n})^r with bad_locus(t) != 0, as a list of tuples of
    element codes, in lexicographic order of their codes."""
    from .finitefield import field

    fld = field(q, n)
    grid = list(itertools.product(range(fld.order), repeat=family.r))
    return fld, list(itertools.compress(grid, family.bad_locus.eval_field(fld, grid)))


def ffield_frobenius(family, fld, t, l):
    """Char-poly classes of Frobenius at every point of a list t of code
    tuples.

    g=1: point i gives (a mod l, #fld mod l) with a = #fld + 1 - #E_t(fld),
    the curve counted through the field's square-root counts.
    """
    if fld.order % l == 0:
        raise ValueError("l divides the field order")
    if family.genus != 1:
        raise ValueError("field-model Frobenius implemented for genus 1")
    if fld.q == 2:
        raise ValueError("singular specialization")
    # delta = -16 (4A^3 + 27B^2) must be nonzero in the field
    polys = family.bad_locus, 4 * family.A**3 + 27 * family.B**2, family.A, family.B
    bad, delta, A, B = _field_values([f.terms for f in polys], fld, t)
    if not all(bad) or not all(delta):
        raise ValueError("singular specialization")
    det = fld.order % l
    return [((fld.order - n) % l, det) for n in fld.affine_points([B, A, 0, 1])]


def _squarefree(coeffs, p):
    """gcd(f, f') = 1 in F_p[x] for f = sum_k coeffs[k] x^k, by Euclid on
    ascending coefficient lists."""
    def strip(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a = strip([c % p for c in coeffs])
    b = strip([k * c % p for k, c in enumerate(a)][1:])
    while b:
        # a mod b
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            coef = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * c) % p
            strip(a)
        a, b = b, a
    return len(a) == 1  # a unit gcd


def _quintic_counts(coeffs, p):
    """(n1, n2) for the curves y^2 = quintic with coefficient lists mod an
    odd prime p (one curve per row), each known to be squarefree; asserts
    the Weil bound and the a2 parity on every row.

    Each coefficient is a list of T residues, the same codes in F_p and
    F_{p^2}, as ``ExtField.affine_points`` takes them; n1 and n2 are lists.
    """
    if p > PRIME_CAP_G2:
        raise ValueError("prime cap exceeded")
    from .finitefield import field

    # one point at infinity for degree 5
    n1 = [1 + n for n in field(p, 1).affine_points(coeffs)]
    n2 = [1 + n for n in field(p, 2).affine_points(coeffs)]
    for c1, c2 in zip(n1, n2):
        a1 = p + 1 - c1
        if a1 * a1 > 16 * p:
            raise AssertionError("Weil bound violated")
        if (a1 * a1 - (p * p + 1 - c2)) % 2:
            raise AssertionError("a2 parity identity violated")
    return n1, n2


def pm_class(key, l):
    """Char-poly class up to sign: (tr, det) and (-tr, det) coincide in the
    mod +-1 quotient, where negating the matrix flips the trace (and a1)
    while fixing the determinant (and a2, similitude)."""
    tr = key[0]
    rep = min(tr % l, (-tr) % l)
    return (rep,) + tuple(key[1:])


def _frequencies(classes, l):
    """Frequencies of a list of class tuples, folded through ``pm_class``,
    as exact Fractions in sorted key order."""
    tally = Counter(pm_class(key, l) for key in classes)
    return {k: Fraction(v, len(classes)) for k, v in sorted(tally.items())}


def chebotarev_report(family, q, l, n_range):
    """Per-n census with predictions from the det = q^n coset.

    The deviation envelope is calibrated at the smallest n: with
    c_emp = deviation(n0), the expected error envelope is
    deviation(n) <= c_emp * q^{-(n - n0)/2} for larger n.  The report
    records each census; callers assert the envelope.
    """
    if l == 2:
        raise ValueError("l = 2 unsupported")
    n_range = sorted(n_range)
    warnings = []
    if math.gcd((l - 1) * sp_order(family.genus, l), q) != 1:  # |GSp_2g(F_l)|
        warnings.append("group order shares a factor with q")
    if math.gcd(q, 6 * l) != 1:
        warnings.append("q not coprime to 6l")
    out = []
    for n in n_range:
        fld, points = ffield_specializations(family, q, n)
        freqs = _frequencies(ffield_frobenius(family, fld, points, l), l)
        delta = pow(q, n, l)
        dens = {(tr, delta): gl2_class_density(l, tr, delta) for tr in range(l)}
        predicted, deviation = _predict(freqs, dens, l)
        out.append(FFieldCensus(q, n, l, len(points), freqs, predicted, deviation,
                                tuple(warnings)))
    return out


def _predict(freqs, dens, l):
    """(predicted, deviation): class densities keyed (tr, det) or
    (a1, a2, similitude), folded through ``pm_class``, and max
    |freq - predicted| over the keys of both."""
    predicted = {}
    for key, v in dens.items():
        key = pm_class(key, l)
        predicted[key] = predicted.get(key, Fraction(0)) + v
    deviation = max(
        abs(freqs.get(k, Fraction(0)) - predicted.get(k, Fraction(0)))
        for k in set(freqs) | set(predicted)
    )
    return predicted, deviation


def genus2_census(family, q, l):
    """Char-poly class census for a genus-2 family over the base field F_q.

    Classes are (a1 mod l, a2 mod l, q mod l); predictions come from the
    similitude = q coset of GSp4(F_l), in closed form, for an odd prime
    l <= L_LIMIT, else None.  The t in F_q^r off the bad locus come from
    ``ffield_specializations``, whose codes are the residues mod q: the
    quintic's coefficients are evaluated there, a curve with bad reduction
    raises, and every curve is counted in one batched call per field.  Field
    extensions (n > 1) are out of reach for the quintic point counts.
    """
    if family.genus != 2:
        raise ValueError("genus-2 family required")
    if q == 2 or q % l == 0:
        raise ValueError("invalid base characteristic")
    fld, t = ffield_specializations(family, q, 1)
    if t and q in family.excluded_primes:
        raise ValueError("bad reduction")
    # over F_q the codes are the residues
    coeffs = _field_values([c.terms for c in family.quintic], fld, t)
    if not all(_squarefree(row, q) for row in set(zip(*coeffs))):
        raise ValueError("bad reduction")
    n1, n2 = _quintic_counts(coeffs, q)
    classes = []
    for c1, c2 in zip(n1, n2):
        a1 = q + 1 - c1
        a2 = (a1 * a1 - (q * q + 1 - c2)) // 2
        classes.append((a1 % l, a2 % l, q % l))
    freqs = _frequencies(classes, l)
    predicted, deviation = None, None
    if l in primes_below(L_LIMIT + 1)[1:]:
        from .groups import charpoly_class_density

        dens = charpoly_class_density(l, q % l)
        predicted, deviation = _predict(freqs, {(*k, q % l): v for k, v in dens.items()}, l)
    return FFieldCensus(q, 1, l, len(t), freqs, predicted, deviation)
