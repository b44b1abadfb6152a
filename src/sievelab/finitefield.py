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
periods of the powers of z.
"""

from __future__ import annotations

import array
import functools
import itertools
import operator

from .config import _prime_divisors


def _spread(q, n, base):
    """The spread code sum d_i base^i of every code sum d_i q^i, in code
    order."""
    out = [0]
    for i in range(n):
        out = [s + d * base**i for d in range(q) for s in out]
    return out


def _unspread(q, n, base):
    """The code sum (s_i mod q) q^i at every spread index sum s_i base^i
    (0 <= s_i < base), as a tuple that shares the ints of range(q^n)."""
    rows = [(c,) for c in range(q**n)]
    for _ in range(n):
        # fold in the lowest digit: rows[h] covers the codes with high part h
        rows = [tuple(itertools.chain.from_iterable(rows[h * q + d % q] for d in range(base)))
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
        self.spread = spread = tuple(_spread(q, n, base))
        self.unspread = unspread = _unspread(q, n, base)
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
        self._count_tables, self._getters = {}, {}
        self._by_code = operator.itemgetter(0, *log[1:])  # x = z^j to code order, 0 apart

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def add(self, a, b):
        return self.unspread[self.spread[a] + self.spread[b]]

    def sqrt_counts(self):
        """#{y : y^2 = v} for every code v, as a tuple."""
        return self._sqrt

    def _tables(self, terms):
        """(spexp, spread, unspread, roots) for sums of ``terms`` spread codes
        in base b = terms (q - 1) + 1, which holds them without a carry.
        spexp[log c + i] is the spread code of c z^i for 0 <= i < q^n - 1 and
        every c, zero included (two periods, then zeros); the views map a
        spread sum to its code and to that code's square-root count.  Two
        terms share the field's own add tables."""
        if terms not in self._count_tables:
            q, n, b = self.q, self.n, terms * (self.q - 1) + 1
            spread, unspread = ((self.spread, self.unspread) if b == 2 * q - 1
                                else (_spread(q, n, b), _unspread(q, n, b)))
            spexp = [spread[c] for c in self.exp]
            roots = bytes(operator.itemgetter(*unspread)(self.sqrt_counts()))
            self._count_tables[terms] = (tuple(spexp * 2 + [0] * (self.order - 1)), tuple(spread),
                                         memoryview(array.array("I", unspread)), memoryview(roots))
        return self._count_tables[terms]

    def _powers(self, spexp, k, c):
        """The spread codes of c x^k at x = z^j, j = 0..q^n - 2, for k >= 1:
        a slice of the doubled spread exp table, read through an
        ``itemgetter`` kept on the field unless k = 1 mod q^n - 1."""
        m, lc = self.order - 1, self.log[c]
        if k % m == 1 % m:
            return spexp[lc:lc + m]
        if k % m not in self._getters:
            self._getters[k % m] = operator.itemgetter(*(j * k % m for j in range(m)))
        return self._getters[k % m](spexp[lc:lc + m])

    def poly_values(self, rows):
        """For each row (c_0, .., c_d) of coefficient codes, the codes of
        sum_k c_k x^k at every code x, as a list of q^n codes in code order.

        The ``_powers`` add as spread codes, c_0 counted as a term, at most t
        at a time, and a full sum spreads again as one term; no new table
        has over 2^16 entries, nor more than the batch has values, as a
        build costs about a pass over them.  The sums go to code order and
        through the unspread view offset by c_0, the value at x = 0."""
        q, n, Q = self.q, self.n, self.order
        most = max((sum(map(bool, row)) for row in rows), default=0)
        t = min(most, 2)  # two terms share the field's own add tables
        while t < most and ((t + 1) * (q - 1) + 1) ** n <= min(1 << 16, Q * len(rows)):
            t += 1
        spexp, spread, unspread, _ = self._tables(max(t, 1))
        out = []
        for row in rows:
            total, offset, held = None, spread[row[0]], bool(row[0])
            for k, c in enumerate(row):
                if k and c:
                    if held == t:  # fold the full sum, c_0 included, into one term
                        total = map(spread.__getitem__, map(unspread[offset:].__getitem__, total))
                        offset, held = 0, 1
                    p = self._powers(spexp, k, c)
                    total = p if total is None else map(operator.add, total, p)
                    held += 1
            if total is None:
                out.append([row[0]] * Q)
                continue
            values = list(operator.itemgetter(*self._by_code(tuple(total)))(unspread[offset:]))
            values[0] = row[0]  # the sums' slot for x = 0 holds x = 1
            out.append(values)
        return out

    def affine_points(self, coeffs):
        """#{(x, y) : y^2 = f(x)} over the field, f from ascending
        coefficient codes.

        Each coefficient is an int or a list of T codes; row i of the lists
        is the curve y^2 = f_i(x).  Returns an int when every coefficient is
        an int, else a list of T counts.  The terms c_k x^k with k >= 1 are
        ``_powers`` slices over x = z^j that add as spread codes by
        ``map(operator.add, ..)``.  The spread code of c_0, the value at
        x = 0, offsets a byte view of square-root counts, and one
        ``itemgetter`` over the sums, and over 0 for x = 0, reads the count
        at every x: it is built once per distinct (c_1, .., c_d) and read
        at the offset of each distinct c_0 that comes with it.
        """
        T = next((len(c) for c in coeffs if not isinstance(c, int)), None)
        # a list with one value throughout is a fixed term
        coeffs = [c[0] if not isinstance(c, int) and c and c.count(c[0]) == len(c) else c
                  for c in coeffs]
        live = [(k, c) for k, c in enumerate(coeffs) if not isinstance(c, int) or c]
        (spexp, _, _, roots), log = self._tables(max(1, len(live))), self.log
        fixed = [0] * (self.order - 1)
        for k, c in live:
            if k and isinstance(c, int):
                fixed = list(map(operator.add, fixed, self._powers(spexp, k, c)))
        ks = [k for k, c in live if k and not isinstance(c, int)]
        c0 = coeffs[0] if coeffs else 0
        c0 = c0 if not isinstance(c0, int) else [c0] * (1 if T is None else T)
        rows = list(zip(*(coeffs[k] for k in ks), c0))
        counts = {}
        for row in rows:  # each distinct curve once
            counts.setdefault(row[:-1], {})[row[-1]] = 0
        for part, by_c0 in counts.items():
            total = fixed
            for k, c in zip(ks, part):
                total = map(operator.add, total, self._powers(spexp, k, c))
            get = operator.itemgetter(0, *total)
            for c in by_c0:
                by_c0[c] = sum(get(roots[spexp[log[c]]:]))
        out = [counts[row[:-1]][row[-1]] for row in rows]
        return out[0] if T is None else out


@functools.lru_cache(maxsize=32)
def field(q, n):
    """F_{q^n}, built once while it stays among the 32 most recently used."""
    return ExtField(q, n)
