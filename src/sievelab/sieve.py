"""Abstract sieve vocabulary and the large-sieve quantity L(Q).

All densities and L(Q) values are exact rationals: the verification oracles
are equality tests against enumeration, and floats would poison them.  The
implied constant of the large-sieve upper bound is never applied.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .config import squarefree_products


class SieveSupport(namedtuple("SieveSupport", "primes Q")):
    """Prime sieve support L* (a tuple) together with the norm bound Q."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        ps = self.primes
        if len(set(ps)) != len(ps):
            raise ValueError("repeated prime in support")
        if any(p >= self.Q for p in ps):
            raise ValueError("support primes must be < Q")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


class SievingSet(namedtuple("SievingSet", "p dim residues")):
    """Forbidden residues Omega_p inside (Z/p)^dim, stored exhaustively as
    a frozenset."""

    __slots__ = ()

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


def large_sieve_L(support, densities):
    """L(Q) = sum over squarefree support products a <= Q of prod nu/(1-nu);
    the empty product contributes 1.  Densities are per-prime Fractions < 1.
    """
    num, den = {}, {}  # nu / (1 - nu) = n / (m - n) for nu = n / m, in lowest terms
    for p in support.primes:
        nu = Fraction(densities.get(p, 0))
        if nu >= 1:
            raise ValueError("degenerate sieving set")
        num[p], den[p] = nu.numerator, nu.denominator - nu.numerator
    return sum((Fraction(math.prod(map(num.get, f)), math.prod(map(den.get, f)))
                for _, f in squarefree_products(support.primes, support.Q)), Fraction(0))


def large_sieve_bound(x, Q, r, L_of_Q):
    """max{x^{r+1}, Q^{2(r+1)}} / L(Q), valid only up to a fixed constant."""
    if L_of_Q <= 0:
        raise ValueError("L(Q) must be positive")
    num = max(Fraction(x) ** (r + 1), Fraction(Q) ** (2 * (r + 1)))
    return num / Fraction(L_of_Q)
