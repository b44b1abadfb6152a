"""F_{q^n} with q prime, elements as integer codes.

The element d_0 + d_1 z + ... + d_{n-1} z^{n-1} of F_q[z]/(h) is the code
sum d_i q^i, so codes run over 0..q^n - 1 and sort like the reversed digit
tuples.  The modulus h is the lexicographically first monic polynomial of
degree n for which z has order q^n - 1: h is primitive, every nonzero
element is a power of z, and products go through exp/log tables.  Sums add
base-q digits mod q, through two tables.  Both take numpy arrays of codes.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .config import _prime_divisors

_BLOCK = 2**14  # grid cells per Horner block in affine_points


def _matpow(m, e, q):
    """m^e mod q for a square int64 matrix."""
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % q
        m = m @ m % q
        e >>= 1
    return out


class ExtField:
    """F_{q^n} = F_q[z]/(h), h primitive; elements are int codes."""

    def __init__(self, q, n):
        if q < 2 or _prime_divisors(q) != [q] or n < 1:
            raise ValueError("need a prime q and n >= 1")
        self.q, self.n = q, n
        Q = q**n
        eye = np.eye(n, dtype=np.int64)
        for tail in itertools.product(range(q), repeat=n):
            # multiplication by z on the basis 1, z, .., z^(n-1)
            z = np.zeros((n, n), dtype=np.int64)
            z[1:, :-1] = eye[1:, 1:]
            z[:, -1] = np.negative(tail) % q
            if np.array_equal(_matpow(z, Q - 1, q), eye) and not any(
                np.array_equal(_matpow(z, (Q - 1) // r, q), eye) for r in _prime_divisors(Q - 1)
            ):
                break
        self.modulus = (*tail, 1)
        # walk the powers of z by doubling: rows k..2k-1 are rows 0..k-1 times z^k
        powers, zk = eye[:1], z
        while len(powers) < Q - 1:
            powers = np.concatenate([powers, powers @ zk.T % q])
            zk = zk @ zk % q
        self._weights = q ** np.arange(n, dtype=np.int64)
        # sums: digits spread to base 2q - 1 add without a carry; a table reduces them mod q
        base = 2 * q - 1
        spread = base ** np.arange(n, dtype=np.int64)
        self._spread = np.arange(Q)[:, None] // self._weights % q @ spread
        self._unspread = np.arange(base**n)[:, None] // spread % base % q @ self._weights
        self._exp = powers[: Q - 1] @ self._weights
        self._log = np.zeros(Q, dtype=np.int64)
        self._log[self._exp] = np.arange(Q - 1)
        # y^2 = v has 2 roots when log v is even, none when odd; one root of
        # each v in characteristic 2
        self._sqrt = np.ones(Q, dtype=np.int64)
        if q != 2:
            self._sqrt[1:] = 2 - 2 * (self._log[1:] % 2)
        for a in (self._spread, self._unspread, self._exp, self._log, self._sqrt):
            a.setflags(write=False)

    @property
    def order(self):
        return self.q**self.n

    def mul(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        prod = self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def add(self, a, b):
        return self._unspread[self._spread[a] + self._spread[b]]

    def sqrt_counts(self):
        """#{y : y^2 = v} for every code v, as a read-only array."""
        return self._sqrt

    def affine_points(self, coeffs):
        """#{(x, y) : y^2 = f(x)} over the field, f from ascending
        coefficient codes.

        Each coefficient is an int or a length-T code array, broadcast
        together; row i of the arrays is the curve y^2 = f_i(x).  Returns an
        int for scalar coefficients, else a length-T int64 array of counts.
        Horner runs over the (T, field order) grid in blocks of whole rows,
        at most _BLOCK cells each (one row when a row alone is larger), so
        the temporaries stay small however many curves there are.
        """
        coeffs = [np.asarray(c) for c in coeffs]
        shape = np.broadcast_shapes(*(c.shape for c in coeffs))
        cols = [np.broadcast_to(c, shape).reshape(-1, 1) for c in coeffs]
        x = np.arange(self.order)
        sqrt = self.sqrt_counts()
        counts = np.empty(len(cols[0]), dtype=np.int64)
        step = max(1, _BLOCK // self.order)
        for i in range(0, len(counts), step):
            v = 0
            for c in reversed(cols):
                v = self.add(self.mul(v, x), c[i:i + step])
            counts[i:i + step] = sqrt[v].sum(axis=1)
        return counts if shape else int(counts[0])


@functools.lru_cache(maxsize=32)
def field(q, n):
    """F_{q^n}, built once while it stays among the 32 most recently used."""
    return ExtField(q, n)
