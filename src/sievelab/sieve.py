"""Abstract sieve vocabulary and the large-sieve quantity L(Q).

All densities and L(Q) values are exact rationals: the verification oracles
are equality tests against enumeration, and floats would poison them.  The
implied constant of the large-sieve upper bound is surfaced as a report flag,
never applied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class SieveSupport:
    """Prime sieve support L* together with the norm bound Q."""

    primes: tuple
    Q: int

    def __post_init__(self):
        ps = self.primes
        if len(set(ps)) != len(ps):
            raise ValueError("repeated prime in support")
        if any(p >= self.Q for p in ps):
            raise ValueError("support primes must be < Q")


@dataclass(frozen=True)
class SievingSet:
    """Forbidden residues Omega_p inside (Z/p)^dim, stored exhaustively."""

    p: int
    dim: int
    residues: frozenset

    @property
    def cardinality(self):
        return len(self.residues)

    @classmethod
    def from_predicate(cls, p, dim, pred):
        import itertools

        residues = frozenset(
            v for v in itertools.product(range(p), repeat=dim) if pred(v)
        )
        return cls(p, dim, residues)


def local_density(s):
    """nu_p(Omega_p) under the uniform measure on (Z/p)^dim."""
    return Fraction(s.cardinality, s.p**s.dim)


def sifted_set(X, F, sets, support):
    """Points of X whose reduction avoids Omega_p for every support prime.

    Primes in the support without a sieving set impose no condition.
    Preserves the input order of X.
    """
    for s in sets:
        if s.p not in support.primes:
            raise ValueError("support mismatch")
    out = []
    for x in X:
        v = F(x)
        for s in sets:
            if tuple(c % s.p for c in v) in s.residues:
                break
        else:
            out.append(x)
    return out


def large_sieve_L(support, densities):
    """L(Q) = sum over squarefree support products a <= Q of prod nu/(1-nu).

    DFS over sorted support primes with early cutoff at Q; the empty product
    contributes 1.  Densities are per-prime Fractions < 1.
    """
    primes = sorted(support.primes)
    ratios = {}
    for p in primes:
        nu = Fraction(densities.get(p, 0))
        if nu >= 1:
            raise ValueError("degenerate sieving set")
        ratios[p] = nu / (1 - nu)
    Q = support.Q
    total = Fraction(0)

    def walk(i, prod_val, weight):
        nonlocal total
        total += weight
        for j in range(i, len(primes)):
            p = primes[j]
            if prod_val * p > Q:
                # primes are sorted, later ones only larger
                break
            walk(j + 1, prod_val * p, weight * ratios[p])

    walk(0, 1, Fraction(1))
    return total


def large_sieve_bound(x, Q, r, L_of_Q):
    """max{x^{r+1}, Q^{2(r+1)}} / L(Q), valid only up to a fixed constant."""
    if L_of_Q <= 0:
        raise ValueError("L(Q) must be positive")
    num = max(Fraction(x) ** (r + 1), Fraction(Q) ** (2 * (r + 1)))
    return num / Fraction(L_of_Q)


def _is_squarefree(d):
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def crt_density_check(sets, verify=True, max_enum=10**6):
    """Composite density over d = prod p via 1 - nu_d = prod (1 - nu_p).

    With ``verify`` the identity is checked against direct enumeration of
    (Z/d)^dim whenever that fits under ``max_enum`` tuples (d <= 1000 in the
    intended range).  The combined Omega_d is the CRT union: a tuple is
    forbidden mod d iff it is forbidden mod some p | d.
    """
    import itertools

    d = 1
    for s in sets:
        d *= s.p
    if not _is_squarefree(d):
        raise ValueError("modulus must be squarefree")
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise ValueError("mixed dimensions")
    dim = dims.pop()
    comp = Fraction(1)
    for s in sets:
        comp *= 1 - local_density(s)
    nu_d = 1 - comp
    if verify and d**dim <= max_enum:
        hit = 0
        for v in itertools.product(range(d), repeat=dim):
            if any(tuple(c % s.p for c in v) in s.residues for s in sets):
                hit += 1
        if Fraction(hit, d**dim) != nu_d:
            raise AssertionError("CRT density identity failed")
    return nu_d


@dataclass(frozen=True)
class SieveReport:
    sifted_count: int
    L_of_Q: Fraction
    bound: Fraction
    densities: tuple  # ((p, Fraction), ...)
    constant_note: str = "bound valid up to a fixed constant depending on (K, r, phi)"
    footnotes: tuple = field(default_factory=tuple)

    def to_json(self):
        return json.dumps(
            {
                "sifted_count": self.sifted_count,
                "L_of_Q": f"{self.L_of_Q.numerator}/{self.L_of_Q.denominator}",
                "bound": f"{self.bound.numerator}/{self.bound.denominator}",
                "densities": [
                    [p, f"{nu.numerator}/{nu.denominator}"] for p, nu in self.densities
                ],
                "constant_note": self.constant_note,
                "footnotes": list(self.footnotes),
            },
            sort_keys=True,
        )


def sieve_report(X, F, sets, support, x, r):
    """Run the sift and assemble the serializable report."""
    survivors = sifted_set(X, F, sets, support)
    densities = tuple(sorted((s.p, local_density(s)) for s in sets))
    L = large_sieve_L(support, dict(densities))
    bound = large_sieve_bound(x, support.Q, r, L)
    return SieveReport(len(survivors), L, bound, densities)
