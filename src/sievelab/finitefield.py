"""Explicit models of F_{q^n} = F_q[z]/(h) with q prime.

Elements are coefficient tuples of length n.  The modulus is found by
deterministic lexicographic search; quadratic extensions use z^2 - nu with nu
the smallest quadratic nonresidue, matching the hand construction used for
genus-2 point counts.
"""

from __future__ import annotations

import itertools


def _poly_mul_mod(a, b, h, q):
    """Product of coefficient lists mod (h, q); h monic, ascending coeffs."""
    n = len(h) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % q
    # reduce by h
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(n):
                out[i - n + j] = (out[i - n + j] - c * h[j]) % q
    return out[:n] + [0] * (n - len(out))


def _poly_powmod(base, e, h, q):
    result = [1]
    b = list(base)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, b, h, q)
        b = _poly_mul_mod(b, b, h, q)
        e >>= 1
    n = len(h) - 1
    result = (result + [0] * n)[:n]
    return result


def _is_irreducible(h, q):
    """Monic h irreducible over F_q iff z^{q^n} = z mod h and z^{q^{n/p}} != z."""
    n = len(h) - 1
    if n == 1:
        return True
    x = [0, 1]
    if _poly_powmod(x, q**n, h, q) != (x + [0] * n)[:n]:
        return False
    for p in _prime_divisors(n):
        if _poly_powmod(x, q ** (n // p), h, q) == (x + [0] * n)[:n]:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def find_irreducible(q, n):
    """Lexicographically first monic irreducible of degree n over F_q."""
    if n == 1:
        return (0, 1)
    for tail in itertools.product(range(q), repeat=n):
        h = list(tail) + [1]
        if _is_irreducible(h, q):
            return tuple(h)
    raise RuntimeError("no irreducible polynomial found")  # impossible


class ExtField:
    """F_{q^n} with elements as coefficient tuples of length n."""

    def __init__(self, q, n, modulus=None):
        self.q = q
        self.n = n
        self.modulus = tuple(modulus) if modulus else find_irreducible(q, n)
        if len(self.modulus) != n + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        self.zero = (0,) * n
        self.one = tuple([1] + [0] * (n - 1))
        self._sqrt_counts = None

    @classmethod
    def quadratic(cls, p):
        """F_{p^2} = F_p[z]/(z^2 - nu), nu the smallest nonresidue."""
        squares = {x * x % p for x in range(p)}
        nu = next(v for v in range(2, p) if v not in squares)
        return cls(p, 2, ((-nu) % p, 0, 1))

    @property
    def order(self):
        return self.q**self.n

    def from_int(self, k):
        return tuple([k % self.q] + [0] * (self.n - 1))

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.q for x in a)

    def mul(self, a, b):
        return tuple(_poly_mul_mod(list(a), list(b), list(self.modulus), self.q))

    def pow(self, a, e):
        return tuple(_poly_powmod(list(a), e, list(self.modulus), self.q))

    def elements(self):
        for tup in itertools.product(range(self.q), repeat=self.n):
            yield tup

    def sqrt_counts(self):
        """Map v -> #{y : y^2 = v}; cached."""
        if self._sqrt_counts is None:
            counts = {v: 0 for v in self.elements()}
            for y in self.elements():
                counts[self.mul(y, y)] += 1
            self._sqrt_counts = counts
        return self._sqrt_counts

    def encode(self, a):
        """Deterministic integer index for ordering/serialization."""
        k = 0
        for c in reversed(a):
            k = k * self.q + c
        return k
