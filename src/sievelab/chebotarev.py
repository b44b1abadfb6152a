"""Empirical function-field equidistribution census over F_q(t).

For a curve family over the t-line and an auxiliary prime l, measure the
distribution of char-poly classes of Frobenius over all good specializations
t in F_{q^n}, compare against the fixed-determinant coset densities from the
matrix-group tables, and track the q^{-n/2} deviation envelope across n.
Point counts are exhaustive gathers of the square-root counts of
``finitefield``: O(q^n) per elliptic curve, and for the genus-2 quintics,
checked squarefree mod q first, O(q^2) through F_q and F_{q^2}, with
q <= PRIME_CAP_G2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import finitefield

PRIME_CAP_G2 = 300


@dataclass(frozen=True)
class FFieldCensus:
    q: int
    n: int
    l: int
    n_points: int
    frequencies: dict  # class key (tr, det) or (a1, a2, mult) -> Fraction
    predicted: dict  # same keyspace -> Fraction, or None if unavailable
    deviation: Fraction  # max |freq - predicted|; None without predictions
    warnings: tuple = field(default_factory=tuple)

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
    """All t in (F_{q^n})^r with bad_locus(t) != 0, as a (T, r) array of
    element codes, rows in lexicographic order of their codes."""
    fld = finitefield.field(q, n)
    grid = np.indices((fld.order,) * family.r).reshape(family.r, -1)
    # a constant bad locus evaluates to a scalar; the mask needs one entry per t
    good = np.broadcast_to(family.bad_locus.eval_field(fld, grid) != 0, grid.shape[1:])
    return fld, grid[:, good].T


def ffield_frobenius(family, fld, t, l):
    """Char-poly classes of Frobenius at every row of a (T, r) code array t.

    g=1: row i is (a mod l, #fld mod l) with a = #fld + 1 - #E_t(fld), the
    curve counted through the field's square-root counts.
    """
    if fld.order % l == 0:
        raise ValueError("l divides the field order")
    if family.genus != 1:
        raise ValueError("field-model Frobenius implemented for genus 1")
    t = np.asarray(t).T
    if np.any(family.bad_locus.eval_field(fld, t) == 0):
        raise ValueError("singular specialization")
    A = np.broadcast_to(family.A.eval_field(fld, t), t.shape[1:])
    B = np.broadcast_to(family.B.eval_field(fld, t), t.shape[1:])
    # delta = -16 (4A^3 + 27B^2) must be nonzero in the field
    q = fld.q
    disc = fld.add(fld.mul(4 % q, fld.mul(fld.mul(A, A), A)), fld.mul(27 % q, fld.mul(B, B)))
    if np.any(disc == 0) or q == 2:
        raise ValueError("singular specialization")
    a = fld.order - fld.affine_points([B, A, 0, 1])
    return np.stack([a % l, np.full_like(a, fld.order % l)], axis=1)


def _squarefree_rows(coeffs, p):
    """Bool per row of a (T, 6) coefficient array: gcd(f, f') = 1 in F_p[x]
    for f = sum_k coeffs[:, k] x^k.

    Euclid on every row at once, with per-row degrees (-1 for zero): each
    pass swaps the rows where deg a < deg b, then cancels the leading term
    of a by a shifted multiple of b, so deg a falls on every row where b is
    nonzero.  The gcd is a unit where a ends as a nonzero constant.
    """
    a = np.asarray(coeffs, dtype=np.int64) % p
    b = np.zeros_like(a)
    b[:, :-1] = a[:, 1:] * np.arange(1, a.shape[1]) % p  # f'
    inverse = np.array([0] + [pow(k, -1, p) for k in range(1, p)], dtype=np.int64)
    cols = np.arange(a.shape[1])

    def degree(v):
        return np.where(v != 0, cols, -1).max(axis=1)

    da, db = degree(a), degree(b)
    rows = np.arange(len(a))
    while (live := db >= 0).any():
        swap = live & (da < db)
        a[swap], b[swap] = b[swap], a[swap]
        da, db = np.where(swap, db, da), np.where(swap, da, db)
        coef = a[rows, da] * inverse[b[rows, db]] % p
        src = cols - (da - db)[:, None]
        shifted = np.where(src >= 0, np.take_along_axis(b, np.maximum(src, 0), axis=1), 0)
        a = np.where(live[:, None], (a - coef[:, None] * shifted) % p, a)
        da = degree(a)
    return da == 0


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
    n1 = 1 + finitefield.field(p, 1).affine_points(coeffs)
    n2 = 1 + finitefield.field(p, 2).affine_points(coeffs)
    a1 = p + 1 - n1
    if np.any(a1 * a1 > 16 * p):
        raise AssertionError("Weil bound violated")
    twice_a2 = a1 * a1 - (p * p + 1 - n2)
    if np.any(twice_a2 % 2):
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
    """Frequencies of the rows of a (T, k) class array, folded through
    ``pm_class``, as exact Fractions in sorted key order."""
    keys, counts = np.unique(classes, axis=0, return_counts=True)
    tally = {}
    for key, count in zip(keys.tolist(), counts.tolist()):
        key = pm_class(key, l)
        tally[key] = tally.get(key, 0) + count
    return {k: Fraction(v, len(classes)) for k, v in sorted(tally.items())}


def _measure(family, q, n, l):
    fld, points = ffield_specializations(family, q, n)
    return len(points), _frequencies(ffield_frobenius(family, fld, points, l), l)


def chebotarev_report(family, q, l, n_range):
    """Per-n census with predictions from the det = q^n coset.

    The deviation envelope is calibrated at the smallest n: with
    c_emp = deviation(n0), the expected error envelope is
    deviation(n) <= c_emp * q^{-(n - n0)/2} for larger n.  The report
    records each census; callers assert the envelope.
    """
    from .groups import GroupSpec, charpoly_class_density, group_order

    n_range = sorted(n_range)
    warnings = []
    spec = GroupSpec(family.genus, l, "gsp")
    if math.gcd(group_order(spec), q) != 1:
        warnings.append("group order shares a factor with q")
    if math.gcd(q, 6 * l) != 1:
        warnings.append("q not coprime to 6l")
    out = []
    for n in n_range:
        delta = pow(q, n, l)
        total, freqs = _measure(family, q, n, l)
        predicted, deviation = None, None
        if family.genus == 1:
            dens = charpoly_class_density(spec, delta)
            predicted, deviation = _predict(freqs, {(tr, delta): v for tr, v in dens.items()}, l)
        out.append(
            FFieldCensus(q, n, l, total, freqs, predicted, deviation, tuple(warnings))
        )
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


def genus2_census(family, q, l):
    """Char-poly class census for a genus-2 family over the base field F_q.

    Classes are (a1 mod l, a2 mod l, q mod l); predictions come from the
    similitude = q coset of GSp4(F_l) when l = 3, else None.  The t in
    F_q^r off the bad locus come from ``ffield_specializations`` and are
    reduced mod q directly: the quintic's coefficients are evaluated mod q
    as arrays, a curve with bad reduction there raises, and every curve is
    counted in one batched call.  Field extensions (n > 1) are out of reach
    for the quintic point counts.
    """
    from .groups import GroupSpec, charpoly_class_density

    if family.genus != 2:
        raise ValueError("genus-2 family required")
    if q == 2 or q % l == 0:
        raise ValueError("invalid base characteristic")
    _, t = ffield_specializations(family, q, 1)
    coeffs = [np.broadcast_to(c.eval_mod(t.T, q), len(t)) for c in family.quintic]
    if len(t) and q in family.excluded_primes:
        raise ValueError("bad reduction")
    if not _squarefree_rows(np.stack(coeffs, axis=1), q).all():
        raise ValueError("bad reduction")
    n1, n2 = _quintic_counts(coeffs, q)
    a1 = q + 1 - n1
    a2 = (a1 * a1 - (q * q + 1 - n2)) // 2
    freqs = _frequencies(np.stack([a1 % l, a2 % l, np.full_like(a1, q % l)], axis=1), l)
    predicted, deviation = None, None
    if l == 3:
        dens = charpoly_class_density(GroupSpec(2, l, "gsp"), q % l)
        predicted, deviation = _predict(freqs, {(*k, q % l): v for k, v in dens.items()}, l)
    return FFieldCensus(q, 1, l, len(t), freqs, predicted, deviation)
