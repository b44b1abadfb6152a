"""F_{q^n} with q prime, elements as integer codes, on Python lists and ints.

The element d_0 + d_1 z + ... + d_{n-1} z^{n-1} of F_q[z]/(h) is the code
sum d_i q^i, so codes run over 0..q^n - 1 and sort like the reversed digit
tuples.  The modulus h is the lexicographically first monic polynomial of
degree n for which z has order q^n - 1: h is primitive, every nonzero
element is a power of z, and products go through exp/log tables.  Each
candidate with h(0) != 0 walks the powers of z on the add tables back to
1, and the first walk through all q^n - 1 nonzero codes is the exp table.
Sums add base-q digits mod q: codes spread to base 2q - 1 add without a
carry, and an unspread table reads the digit sums back mod q.  The tables
are tuples indexed by code; ``log[0]`` is 2 (q^n - 1), an index past two
periods of the powers of z.  Each field builds this one set of add tables
and its views once.  One kernel sums polynomials at every x on them,
refolding after every second term, and reads the sums as codes
(``poly_values``) or root counts (``affine_points``).
"""

from __future__ import annotations

import array
import functools
import itertools
import operator

from .config import _prime_divisors


def _spread(q, n):
    """The spread code sum d_i (2q - 1)^i of every code sum d_i q^i, in code
    order."""
    out = [0]
    for i in range(n):
        out = [s + d * (2 * q - 1)**i for d in range(q) for s in out]
    return out


def _unspread(q, n):
    """The code sum (s_i mod q) q^i at every spread index sum s_i (2q - 1)^i
    (0 <= s_i < 2q - 1), as a tuple that shares the ints of range(q^n)."""
    rows = [(c,) for c in range(q**n)]
    for _ in range(n):
        # fold in the lowest digit: rows[h] covers the codes with high part h
        rows = [tuple(itertools.chain.from_iterable(rows[h * q + d % q] for d in range(2 * q - 1)))
                for h in range(len(rows) // q)]
    return rows[0]


class ExtField:
    """F_{q^n} = F_q[z]/(h), h primitive; elements are int codes.

    ``exp[k]`` is the code of z^k for 0 <= k < q^n - 1, ``log`` its inverse,
    ``spread`` and ``unspread`` the base-(2q - 1) add tables.
    """

    def __init__(self, q, n):
        if q < 2 or _prime_divisors(q) != [q] or n < 1:
            raise ValueError("need a prime q and n >= 1")
        Q = q**n
        self.q, self.n, self.order = q, n, Q
        m = Q - 1
        base = 2 * q - 1
        self.spread = spread = tuple(_spread(q, n))
        self.unspread = unspread = _unspread(q, n)
        top = q ** (n - 1)
        for tail in itertools.product(range(q), repeat=n):
            if not tail[0]:  # z divides h, so z is no unit
                continue
            # walk the powers of z back to 1 on the add tables: c z shifts the
            # digits of c up and adds minus_th[t], the spread code of -t h for top digit t
            minus_th = [0] * q
            for i, h in enumerate(tail):
                w = base**i
                minus_th = [s + (-t * h) % q * w for t, s in enumerate(minus_th)]
            exp, c = [], 1
            while True:
                exp.append(c)
                c = unspread[spread[c % top * q] + minus_th[c // top]]
                if c == 1:
                    break
            if len(exp) == m:
                break
        self.modulus = (*tail, 1)
        log = [2 * m] * Q
        for k, c in enumerate(exp):
            log[c] = k
        self.exp, self.log = tuple(exp), tuple(log)
        # y^2 = v has 2 roots when log v is even, none when odd; one root of
        # each v in characteristic 2
        self._sqrt = (1,) + tuple(2 - 2 * (k % 2) if q != 2 else 1 for k in log[1:])
        # the tables of _sums: _spexp[log c + i] is the spread code of c z^i for
        # 0 <= i < q^n - 1 and every c, zero included (two periods, then zeros);
        # the others map a spread sum of two codes to the spread code of its
        # code, to its code and to that code's square-root count
        self._spexp = tuple([spread[c] for c in exp] * 2 + [0] * m)
        self._refold = tuple(map(spread.__getitem__, unspread))
        self._codes = memoryview(array.array("I", unspread))
        self._roots = memoryview(bytes(operator.itemgetter(*unspread)(self.sqrt_counts())))
        self._getters = {}

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def add(self, a, b):
        return self.unspread[self.spread[a] + self.spread[b]]

    def sqrt_counts(self):
        """#{y : y^2 = v} for every code v, as a tuple."""
        return self._sqrt

    def _powers(self, k, c):
        """The spread codes of c x^k at every code x, for k >= 1 and c != 0,
        through an ``itemgetter`` kept per k mod q^n - 1; x = 0 reads index
        log[0] of the slice, in the zeros."""
        m, lc = self.order - 1, self.log[c]
        if k % m not in self._getters:
            self._getters[k % m] = operator.itemgetter(*(k * j % m if x else j
                                                         for x, j in enumerate(self.log)))
        return self._getters[k % m](self._spexp[lc:lc + 2 * m + 1])

    def _sums(self, rows, counts):
        """Each distinct row (c_0, .., c_d) of coefficient codes with the
        codes of sum_k c_k x^k at every code x, or their square-root counts,
        as a tuple in code order.  The ``_powers`` add as spread codes once
        per part (c_1, .., c_d), those that every part shares once in all,
        and each sum of two refolds to one term, so c_0 always fits.  One
        ``itemgetter`` per part reads a view offset by each c_0."""
        parts = {}
        for row in dict.fromkeys(rows):
            parts.setdefault(row[1:], []).append(row[0])
        shared = set.intersection(*(set(enumerate(part, 1)) for part in parts)) if parts else ()

        def add(total, terms):
            for k, c in terms:
                if c:
                    p = self._powers(k, c)
                    total = p if total is None else operator.itemgetter(
                        *map(operator.add, total, p))(self._refold)
            return total

        base, view = add(None, sorted(shared)), self._roots if counts else self._codes
        for part, c0s in parts.items():
            total = add(base, (kc for kc in enumerate(part, 1) if kc not in shared))
            get = operator.itemgetter(*([0] * self.order if total is None else total))
            for c0 in c0s:
                yield (c0, *part), get(view[self._spexp[self.log[c0]]:])

    def poly_values(self, rows):
        """For each tuple (c_0, .., c_d) of coefficient codes, the codes of
        sum_k c_k x^k at every code x, as a tuple in code order."""
        values = dict(self._sums(rows, False))
        return [values[row] for row in rows]

    def affine_points(self, coeffs):
        """#{(x, y) : y^2 = f(x)} over the field, f from ascending
        coefficient codes, each an int or a list of T codes; row i of the
        lists is the curve y^2 = f_i(x).  Returns an int when every
        coefficient is an int, else a list of T counts."""
        T = next((len(c) for c in coeffs if not isinstance(c, int)), None)
        rows = list(zip(*(itertools.repeat(c, T or 1) if isinstance(c, int) else c
                          for c in coeffs or [0])))
        counts = {row: sum(roots) for row, roots in self._sums(rows, True)}
        out = list(map(counts.__getitem__, rows))
        return out[0] if T is None else out


@functools.lru_cache(maxsize=32)
def field(q, n):
    """F_{q^n}, built once while it stays among the 32 most recently used."""
    return ExtField(q, n)
