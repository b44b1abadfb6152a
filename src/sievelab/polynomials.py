"""Sparse multivariate polynomials with integer coefficients.

Small utility ring used for family coefficient polynomials and bad loci.
Coefficients are ints (the constructor rejects any other value); exponents
are tuples.  Evaluation at rationals is exact, in Fractions; at residues
mod p it is integer arithmetic, and at points of a ``finitefield.ExtField``
it reads whole-field values of univariate rows (``ExtField.poly_values``).
"""

from __future__ import annotations

import operator


class Poly:
    """Polynomial in ``nvars`` variables, stored as {exponent tuple: coeff}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            if c != int(c):
                raise ValueError(f"Poly takes integer coefficients, not {c!r}")
            if c:
                clean[tuple(exps)] = int(c)
        self.terms = clean

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def univariate(cls, coeffs):
        """Build a 1-variable polynomial from an ascending coefficient list."""
        return cls(1, {(k,): c for k, c in enumerate(coeffs)})

    def degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.nvars, terms)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.nvars, terms)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n):
        out = Poly.const(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Poly.const(self.nvars, other)

    def __call__(self, *values):
        """Evaluate at rational values; returns a Fraction."""
        from fractions import Fraction

        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        vals = [Fraction(v) for v in values]
        out = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(vals, exps):
                term *= v ** e
            out += term
        return out

    def eval_mod(self, values, p):
        """Evaluate at integers mod p.  The values and p may be ints or int64
        numpy arrays (broadcast together, each product reduced mod p, so
        p < 3 * 10^9 stays exact), such as one prime per column."""
        powers = [[1, v % p] for v in values]  # powers[i][e] = values[i]^e mod p
        out = 0
        for exps, c in self.terms.items():
            term = c % p
            for pw, e in zip(powers, exps):
                while len(pw) <= e:
                    pw.append(pw[-1] * pw[1] % p)
                if e:
                    term = term * pw[e] % p
            out = out + term  # a sum of terms < p, reduced once
        return out % p

    def eval_field(self, field, points):
        """Evaluate at a list of points of a ``finitefield.ExtField``, each a
        tuple of element codes, one per variable; returns a list of codes.
        ``_field_values`` recurses on the last variable."""
        return _field_values([self.terms], field, points)[0]

    def homogenize(self):
        """Homogenize with a new leading variable t0: f(t) -> t0^deg f(t/t0)."""
        d = self.degree()
        terms = {}
        for exps, c in self.terms.items():
            e0 = d - sum(exps)
            terms[(e0,) + exps] = c
        return Poly(self.nvars + 1, terms)

    def to_terms(self):
        """JSON-friendly term list [[coeff, e1, ..., en], ...], sorted."""
        return [[self.terms[exps], *exps] for exps in sorted(self.terms)]

    @classmethod
    def from_terms(cls, nvars, terms):
        return cls(nvars, {tuple(t[1:]): t[0] for t in terms})

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"


def _field_values(polys, field, points):
    """For each term dict {exponents: c} in the list polys, the codes at each
    point of sum c prod v_i^e_i: the f_k of every f = sum_k f_k(v_1, ..,
    v_{r-1}) v_r^k are evaluated in one call one variable down at the
    distinct heads (v_1, .., v_{r-1}), each head gives each f a row (f_0,
    f_1, ..), one ``poly_values`` call evaluates the distinct rows, and each
    point reads its rows at v_r.  An exponent k >= 1 folds to
    1 + (k - 1) mod (q^n - 1), the same power at every x."""
    if not points or not points[0]:  # constants: a code is the residue mod q
        return [[sum(terms.values()) % field.q] * len(points) for terms in polys]
    m, parts = field.order - 1, []
    for terms in polys:
        by_k = {}
        for exps, c in terms.items():
            part = by_k.setdefault(exps[-1] and 1 + (exps[-1] - 1) % m, {})
            part[exps[:-1]] = part.get(exps[:-1], 0) + c
        parts.append([by_k.get(k, {}) for k in range(max(by_k, default=0) + 1)])
    head_of = list(map(operator.itemgetter(slice(0, -1)), points))
    heads = list(dict.fromkeys(head_of))
    down = iter(_field_values([part for f in parts for part in f], field, heads))
    rows = [list(zip(*(next(down) for _ in f))) for f in parts]  # each f's row at each head
    values = dict.fromkeys(row for f_rows in rows for row in f_rows)
    values = dict(zip(values, field.poly_values(list(values))))
    last = list(map(operator.itemgetter(-1), points))
    ats = (dict(zip(heads, map(values.__getitem__, f_rows))) for f_rows in rows)
    return [list(map(operator.getitem, map(at.__getitem__, head_of), last)) for at in ats]
