"""Experiment orchestration: the surjectivity census and class-set sieving,
shared by the CLI and the test suite (goodred runs ``brun`` directly).  It
returns data (``CensusRow``, ``ClassSetReport``); the CLI writes the files.

The census holds the parameters t = num/den of bounded height as int32
codes and sweeps them over the primes up to a cap in blocks of eight.  Per
l, the witness bits of each class (a_p mod l, p mod l) (``witness_lut``),
one per condition of the verdict that one table reads (``VERDICT``), OR
into a uint8 state per point.  While many points are live, each prime
folds every l into one class table over the residues mod p, read at the
points' codes; past that, one block of character sums (``ap_sums``) serves
the few left.  States only gain bits, so before each block the points whose
states hold every bit their tables can set leave: certified at every l >= 5
in the census, the class's trace seen in the class sieve, every trace mod l
seen in the containment check.  A point enters the exceptional proxy when
it is undecided for at least one l; verdicts depend only on (t, l, p-cap),
so the proxy is monotone under enlarging the height window.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .config import (InfeasibleError, _check_x, _prime_divisors, check_class_set,
                     gl2_class_density, primes_below)
from .curves import BAD_SENTINEL, _pow_mod, ap_sums, ap_table
from .heights import affine_line_points


# Witness bits of a set of g = 1 classes mod l >= 5, one per condition of
# Serre's criterion (Invent. Math. 15, 1972, §2.8, Prop. 19): dets that
# generate F_l^x, split and nonsplit Cartan witnesses with nonzero trace, and
# an exceptional-image excluder; the oracle ``surjectivity_verdict`` in
# tests/oracles.py checks them on a class set directly.  Unit bit i: some
# det is not an r_i-th power, r_i the i-th prime divisor of l - 1; every
# unit det sets the bits i >= omega(l - 1), and omega(l - 1) <= 3 for
# l < 211.  The bits of a set are the OR over its classes; VERDICT maps them
# to 0 ('surjective') or to the reason code of the first missing witness.
UNITS, SPLIT, NONSPLIT, EXCLUDER = 0b111, 1 << 3, 1 << 4, 1 << 5
WITNESSED = UNITS | SPLIT | NONSPLIT | EXCLUDER
REASONS = ("det", "split", "nonsplit", "excluder", "l3")  # code k >= 1 is REASONS[k - 1]
VERDICT = np.array([next((k for k, w in enumerate((UNITS, SPLIT, NONSPLIT, EXCLUDER), 1)
                          if s & w != w), 0) for s in range(WITNESSED + 1)], dtype=np.int8)
VERDICT.setflags(write=False)


@functools.cache
def witness_lut(l):
    """Read-only (l, l) uint8 table of the witness bits of the class
    (tr, det), indexed [tr, det]; det = 0 (p = l) carries no bits."""
    squares = {x * x % l for x in range(1, l)}
    divisors = _prime_divisors(l - 1)
    lut = np.zeros((l, l), dtype=np.uint8)
    for tr in range(l):
        for d in range(1, l):
            disc, u = (tr * tr - 4 * d) % l, tr * tr * pow(d, -1, l) % l
            powers = sum(1 << i for i, r in enumerate(divisors) if pow(d, (l - 1) // r, l) == 1)
            lut[tr, d] = (
                UNITS ^ powers
                | SPLIT * (tr != 0 and disc in squares)
                | NONSPLIT * (tr != 0 and disc != 0 and disc not in squares)
                | EXCLUDER * (u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % l != 0)
            )
    lut.setflags(write=False)
    return lut


class CensusRow(namedtuple("CensusRow", "x n_points surjective undecided undecided_any reasons")):
    """One census row at height bound x: ``surjective`` and ``undecided``
    map l to a count, and ``reasons`` maps l to the undecided counts, one
    per REASONS."""

    __slots__ = ()

    @property
    def fraction(self):
        return self.undecided_any / self.n_points if self.n_points else 0.0


# Live points above which the sweep builds a prime's ap_table and class
# table rather than summing characters at each point.  On a 2-core machine
# the two took 0.4-0.6 ms near p = 250 and 0.5-0.85 us * p from 10^3 to
# 10^4, and a block of ap_sums 3.5-7.5 ns * p per point and prime: they
# cross at 130-190 points for p >= 10^3 (200-400 near p = 250), so at 64
# the sums cost well under the table they replace.
TABLE_MIN_LIVE = 64
BLOCK = 8  # primes per block: points leave the sweep, and sums serve, a block at a time


def _classes(luts, ap, p):
    """(..., len(luts)) uint8 bits lut[a_p mod l, p mod l], 0 at bad a_p."""
    return np.stack([lut[ap % len(lut), p % len(lut)] * (ap != BAD_SENTINEL) for lut in luts], -1)


def _sweep(num, den, family, primes, luts):
    """(P, len(luts)) uint8 states: for each point and each (l, l) uint8
    table in ``luts``, the OR of lut[a_p mod l, p mod l] over the primes p
    not dividing den at which the point has good reduction.

    The primes go in blocks of BLOCK.  While more than TABLE_MIN_LIVE
    points are live, each prime ORs in one row gather at the points' int32
    codes from a (p + 1, len(luts)) class table over the residues, zero at
    bad residues and at row p, the code where p | den; past that, each block
    reads a_p from one ``ap_sums`` call.  Before each block, the points
    whose every state is its LUT's full value (the OR of all its entries)
    leave: more bits cannot change them.  With no LUT, all leave at once.
    """
    full = np.array([np.bitwise_or.reduce(lut, axis=None) for lut in luts], dtype=np.uint8)
    state = np.zeros((len(num), len(luts)), dtype=np.uint8)
    live = np.arange(len(num))
    n, d, s = num.astype(np.int32), den.astype(np.int32), state
    dens = np.arange(int(den.max(initial=0)) + 1, dtype=np.int32)
    for k in range(0, len(primes), BLOCK):
        if (done := (s == full).all(axis=1)).any():
            state[live[done]] = s[done]
            live, n, d, s = live[~done], n[~done], d[~done], s[~done]
        if not len(live):
            break
        p = np.array(primes[k:k + BLOCK], dtype=np.int32)
        if len(live) > TABLE_MIN_LIVE:
            inv = _pow_mod(dens, p[:, None] - 2, p[:, None])  # [j, den]: 0 where p_j | den
            for j, q in enumerate(p.tolist()):
                table = _classes(luts, np.append(ap_table(family, q), BAD_SENTINEL), q)
                s |= np.take(table, np.where((iv := inv[j, d]), n % q * iv % q, q), axis=0)
        else:
            inv = _pow_mod(d[:, None], p - 2, p)
            ap = ap_sums(family, p.tolist(), n[:, None] % p * inv % p)
            s |= np.bitwise_or.reduce(_classes(luts, ap, p) * (inv != 0)[..., None], axis=1)
    state[live] = s
    return state


def _reason_codes(num, den, family, pcap, l_values):
    """(P, len(l_values)) int8 over the primes up to pcap that the family
    does not exclude: 0 where 'surjective', else the reason code of the
    first missing witness (REASONS); l = 3 is always 'l3'.  A witness
    LUT's full value is WITNESSED, so a point leaves the sweep once it is
    certified at every l >= 5; with no l >= 5 no a_p is evaluated."""
    big = [j for j, l in enumerate(l_values) if l != 3]
    primes = [p for p in primes_below(pcap + 1) if p not in family.excluded_primes]
    state = _sweep(num, den, family, primes, [witness_lut(l_values[j]) for j in big])
    out = np.full((len(num), len(l_values)), REASONS.index("l3") + 1, dtype=np.int8)
    out[:, big] = VERDICT[state]
    return out


def _trace_table(l, tr):
    """(l, l) uint8 table, 1 on the classes (tr, det) and 0 elsewhere."""
    table = np.zeros((l, l), dtype=np.uint8)
    table[tr] = 1
    return table


def census(family, x_values, l_values, pcap):
    """(rows, (num, den), surjective): a CensusRow per x, the points of
    height <= max(x_values) as int64 arrays (by den, then num), and the
    (points, l) bool matrix of 'surjective' verdicts.  Verdicts are
    computed once at the largest x and restricted, which also enforces the
    monotone-containment invariant."""
    _check_x(max(x_values))
    num, den = affine_line_points(max(x_values), family.bad_locus)
    reason = _reason_codes(num, den, family, pcap, l_values)
    height = np.maximum(np.abs(num), den)
    rows = []
    for x in sorted(x_values):
        sub = reason[height <= x]
        und = (sub != 0).sum(axis=0).tolist()
        rows.append(CensusRow(
            x, len(sub),
            {l: len(sub) - u for l, u in zip(l_values, und)},
            dict(zip(l_values, und)),
            int((sub != 0).any(axis=1).sum()),
            {l: np.bincount(sub[:, j], minlength=len(REASONS) + 1)[1:].tolist()
             for j, l in enumerate(l_values)},
        ))
    return rows, (num, den), reason == 0


ClassSetReport = namedtuple("ClassSetReport", "l class_key x Q support count bound")
ClassSetReport.__doc__ = """|Y_C(x)| for the class C = class_key mod l; ``bound`` is
(coset/|C|) * l * log x / sqrt(x) * x^2, up to a constant."""


def _support_primes(family, l, pcap, Q):
    """Class-sieve support: primes p < Q with p = 1 mod l, p <= pcap, not
    excluded by the family."""
    support = tuple(
        p
        for p in primes_below(min(int(Q), pcap + 1))
        if p % l == 1 and p not in family.excluded_primes
    )
    if not support:
        raise InfeasibleError("empty support")
    return support


def sifted_class_set(family, x, l, class_key, pcap, Q):
    """|Y_C(x)|: parameters whose Frobenius class avoids C at every support
    prime p = 1 mod l below Q.  A parameter is sifted out at p when its
    reduction is good there with a_p = tr (mod l); det = p = 1 (mod l) on
    the whole support, so C must have det = 1.  The class is reported
    reduced mod l."""
    tr0, det0 = check_class_set(x, l, class_key)
    support_primes = _support_primes(family, l, pcap, Q)
    num, den = affine_line_points(x, family.bad_locus)
    seen = _sweep(num, den, family, support_primes, [_trace_table(l, tr0)])[:, 0]
    count = int(np.count_nonzero(seen == 0))
    # bound shape: (|G^g| / |C|) * l * log x / sqrt(x) * x^{r+1}, with C's
    # share of the det = det0 coset of GL2(F_l) in closed form
    inv_density = float(1 / gl2_class_density(l, tr0, det0))
    bound = inv_density * l * math.log(x) / math.sqrt(x) * x**2
    return ClassSetReport(l, (tr0, det0), x, int(Q), support_primes, count, bound)


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

