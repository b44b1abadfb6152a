"""Bonferroni/Brun sandwich bounds, remainder audits, and the good-reduction census.

The upper/lower sieve coefficients are the classical truncated-Moebius
(Bonferroni) weights: lambda_d = mu(d) when omega(d) <= 2b (upper) or
<= 2b-1 (lower), zero otherwise.  They satisfy the support and magnitude
constraints of the abstract coefficient theorem and give a valid sandwich by
the Bonferroni inequalities.  The optional cutoff D zeroes lambda_d for
d >= D; the sandwich is only guaranteed when D exceeds every contributing d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heights import enumerate_projective
from .sieve import local_density


def primes_below(n):
    n = max(n, 2)
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for k in range(2, math.isqrt(n) + 1):
        if sieve[k]:
            sieve[k * k :: k] = b"\x00" * len(sieve[k * k :: k])
    return [i for i in range(n) if sieve[i]]


@dataclass(frozen=True)
class BrunCoefficients:
    D: int  # support bound, None for untruncated
    depth: int  # truncation level b, None for untruncated
    sign: str  # "upper" or "lower"
    values: dict  # squarefree d -> lambda_d in {-1, 0, +1}; zeros omitted

    def __getitem__(self, d):
        return self.values.get(d, 0)


def _squarefree_products(primes, D):
    """(d, omega(d)) over squarefree products of the given primes, d < D."""
    out = [(1, 0)]
    for p in primes:
        new = [(d * p, w + 1) for d, w in out if D is None or d * p < D]
        out.extend(new)
    return [(d, w) for d, w in out if D is None or d < D]


def brun_coefficients(support_primes, D, b, sign):
    """Truncated-Moebius coefficients over the given support primes."""
    if sign not in ("upper", "lower"):
        raise ValueError("sign must be 'upper' or 'lower'")
    if D is not None and D < 2:
        raise ValueError("D must be >= 2")
    if b is not None and b < 1:
        raise ValueError("depth must be >= 1")
    if b is None:
        cutoff = None
    else:
        cutoff = 2 * b if sign == "upper" else 2 * b - 1
    values = {}
    for d, w in _squarefree_products(sorted(support_primes), D):
        if cutoff is None or w <= cutoff:
            values[d] = 1 if w % 2 == 0 else -1
    return BrunCoefficients(D, b, sign, values)


@dataclass(frozen=True)
class SandwichReport:
    main_term: Fraction  # H * prod_{p in support} (1 - nu_p)
    lower: Fraction
    upper: Fraction
    remainder_plus: Fraction
    remainder_minus: Fraction
    exact: int  # None when not computed

    def to_json(self):
        import json

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


def sandwich(X, F, sets_by_prime, support, D=None, b=None, compute_exact=True):
    """Bonferroni sandwich on |sifted set| with exact congruence sums S_d.

    ``sets_by_prime`` maps each support prime to its SievingSet.  With
    b = None the coefficients are the full Moebius weights and
    lower = exact = upper.
    """
    primes = sorted(support.primes)
    for p in primes:
        if p not in sets_by_prime:
            raise ValueError(f"missing sieving set for support prime {p}")
    n = len(X)
    # per-prime hit masks as python-int bitsets
    masks = {}
    for p in primes:
        s = sets_by_prime[p]
        m = 0
        for i, u in enumerate(X):
            if tuple(c % p for c in F(u)) in s.residues:
                m |= 1 << i
        masks[p] = m

    H = Fraction(n)
    densities = {p: local_density(sets_by_prime[p]) for p in primes}

    full = (1 << n) - 1

    def S(d, prime_factors):
        m = full
        for p in prime_factors:
            m &= masks[p]
        return m.bit_count()

    def factor(d):
        return [p for p in primes if d % p == 0]

    # (sum lambda_d S_d, sum |S_d - nu_d H|) for each sign
    sums = {}
    for sign in ("upper", "lower"):
        total = Fraction(0)
        remainder = Fraction(0)
        for d, lam in brun_coefficients(primes, D, b, sign).values.items():
            fs = factor(d)
            Sd = S(d, fs)
            nu_d = Fraction(1)
            for p in fs:
                nu_d *= densities[p]
            total += lam * Sd
            remainder += abs(Fraction(Sd) - nu_d * H)
        sums[sign] = (total, remainder)
    (upper, r_plus), (lower, r_minus) = sums["upper"], sums["lower"]

    main = H
    for p in primes:
        main *= 1 - densities[p]

    exact = None
    if compute_exact:
        hit_any = 0
        for p in primes:
            hit_any |= masks[p]
        exact = (full & ~hit_any).bit_count()
        if not (lower <= exact <= upper) and (D is None or b is None):
            raise AssertionError("sandwich violated with untruncated-valid coefficients")
    return SandwichReport(main, lower, upper, r_plus, r_minus, exact)


@dataclass(frozen=True)
class RemainderAudit:
    d: int
    x: int
    r: int
    measured: Fraction  # r_d = |{u in B(x): u mod d in Omega_d}| - nu_d |B(x)|
    bound: float  # C_audit * |B(x)| * relative-error shape (see audit docstring)
    c_audit: float
    ok: bool


def lattice_remainder_audit(d, omega_d, x, r, c_audit=8.0):
    """Measure the congruence remainder over the lattice ball [-x, x]^{r+1}.

    The remainder lemma lives on the full lattice ball, not on the primitive
    point set (which carries a constant-order congruence bias).  Shape of the
    relative error: d^2 log x / x when r = 1, else d^{r+1} / x (field degree 1
    throughout; d here is the modulus).
    """
    import itertools

    B = (2 * x + 1) ** (r + 1)
    if d == 1:
        return RemainderAudit(1, x, r, Fraction(0), 0.0, c_audit, True)
    hit = 0
    for v in itertools.product(range(-x, x + 1), repeat=r + 1):
        if tuple(c % d for c in v) in omega_d:
            hit += 1
    nu_d = Fraction(len(omega_d), d ** (r + 1))
    measured = Fraction(hit) - nu_d * B
    if r == 1:
        shape = d * d * math.log(x) / x if x > 1 else float(d * d)
    else:
        shape = d ** (r + 1) / x
    bound = c_audit * B * shape
    return RemainderAudit(d, x, r, measured, bound, c_audit, abs(measured) <= bound)


@dataclass(frozen=True)
class GoodReductionCensus:
    x: int
    Q: int
    count: int
    floor_estimate: float  # x^{r+1} / (log Q)^kappa
    kappa: int
    support: tuple

    @property
    def ratio(self):
        return self.count / self.floor_estimate if self.floor_estimate else float("inf")

    def csv_row(self):
        return [self.x, self.Q, self.count, f"{self.floor_estimate:.6f}", f"{self.ratio:.6f}"]


def good_reduction_census(family, x, Q):
    """Count B(x) points avoiding the bad-reduction locus mod every support prime.

    Support: primes p < Q not in the family's excluded set.  The condition is
    f(t) != 0 mod p with f the homogenized bad-locus polynomial; kappa = deg f.
    """
    f = family.bad_locus.homogenize()
    if f.is_zero():
        raise ValueError("bad-reduction polynomial is zero")
    r = family.r
    kappa = f.degree()
    support = tuple(
        p for p in primes_below(int(Q)) if p not in family.excluded_primes
    )
    if r == 1 and x > 200:
        count = _census_r1_numpy(f, x, support)
    else:
        count = 0
        for pt in enumerate_projective(r, x):
            if all(f.eval_mod(pt.coords, p) != 0 for p in support):
                count += 1
    floor = x ** (r + 1) / math.log(Q) ** kappa if Q > 1 else float("inf")
    return GoodReductionCensus(x, int(Q), count, floor, kappa, support)


def _census_r1_numpy(f, x, support):
    b = np.arange(-x, x + 1, dtype=np.int64)
    tables = {}
    bmod = {}
    for p in support:
        a_res = np.arange(p, dtype=np.int64)
        tab = np.empty((p, p), dtype=bool)
        for ar in range(p):
            row = np.array([f.eval_mod((ar, br), p) for br in range(p)])
            tab[ar] = row != 0
        tables[p] = tab
        bmod[p] = (b % p).astype(np.intp)
    count = 0
    # a = 0 contributes only the canonical point (0, 1)
    if all(tables[p][0][1 % p] for p in support):
        count += 1
    for a in range(1, x + 1):
        mask = None
        for p in support:
            ok = tables[p][a % p][bmod[p]]
            mask = ok if mask is None else (mask & ok)
        if mask is None:
            mask = np.ones_like(b, dtype=bool)
        mask &= np.gcd(a, b) == 1
        count += int(mask.sum())
    return count


def density_condition_check(densities, w, Q, kappa, C):
    """Verify prod_{w<=p<Q} (1-nu_p)^{-1} <= C (log Q / log w)^kappa.

    Returns (holds, measured_left_side).  ``densities`` maps primes to nu_p.
    """
    if not 2 <= w <= Q:
        raise ValueError("need 2 <= w <= Q")
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


def q_x_relationship_warning(Q, s, r, x, d=1):
    """Warn (not error) when Q^{s(d(r+1)+1)} exceeds sqrt(x); the relationship
    between Q and x is known not to be sharp, so this is advisory only."""
    if Q ** (s * (d * (r + 1) + 1)) > math.sqrt(x):
        return f"Q^(s(d(r+1)+1)) = {Q ** (s * (d * (r + 1) + 1)):.3g} exceeds sqrt(x) = {math.sqrt(x):.3g}"
    return None
