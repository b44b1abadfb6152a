"""Configuration, limits, family documents, the primes sieve, the coprime
rows and the squarefree walk, without numpy; reads and writes no file."""

import bisect
import itertools
import math
import os
from collections import namedtuple

from .polynomials import Poly


class ConfigError(Exception):
    """Malformed configuration; CLI exit code 2."""


class InfeasibleError(Exception):
    """Caps beyond module feasibility; CLI exit code 3."""


PCAP_LIMIT = 10**4
# the cap is time and memory, measured at the caps up to l = 13; no sweep
# table limits l, and ``census.witness_lut`` holds for l < 211
L_LIMIT = 13
X_LIMIT = 1000  # census and class sieve only: both hold all x (2x + 1) candidates
# goodred, by the family's r: one bit row (a Python int) over the last
# coordinate per prefix, about (2x + 1)^r / 2 rows, one at a time.  On a
# 2-core machine the default genus-2 count takes 3-6 ms at x = 15 and
# 0.20-0.29 s at x = 40, and the genus-1 count 0.12-0.19 s at x = 10^4; the
# r = 3 cap stays at 15, the last x before its support holds a prime
GOODRED_X_LIMIT = {1: 10**4, 3: 15}
MAX_DEGREE = 64  # total degree of a family polynomial; the default families stay <= 9


def smallest_prime_factors(n):
    """List s with s[k] the least prime factor of k, for 2 <= k <= n
    (s[0] = 0, s[1] = 1).  The lab's one primes sieve."""
    n = max(n, 1)
    spf = list(range(n + 1))
    # every k <= sqrt(n), largest first, so the least divisor > 1 of each
    # multiple (a prime) writes last; no primality test is needed
    for k in range(math.isqrt(n), 1, -1):
        spf[k * k :: k] = [k] * len(range(k * k, n + 1, k))
    return spf


def coprime_rows(r, x):
    """Yield (c, row) for each canonical prefix c (the first r coordinates)
    of P^r(Q) at height <= x: c = 0 first, its row b = 1 only, then each c
    with first nonzero entry > 0, in lexicographic order.  Row bit i, for
    b = -x + i, is set where gcd(c, b) = 1.  The lab's one coprimality sieve."""
    n = 2 * x + 1
    full = (1 << n) - 1
    yield (0,) * r, 1 << x + 1
    spf = smallest_prime_factors(x)
    coprime = {}  # q -> the row of the b that q does not divide
    # in lexicographic order the c with first nonzero entry > 0 follow c = 0, the middle
    prefixes = itertools.product(range(-x, x + 1), repeat=r)
    for c in itertools.islice(prefixes, n**r // 2 + 1, None):
        m = full
        g = math.gcd(*c)
        while g > 1:
            q = spf[g]
            if q not in coprime:
                coprime[q] = full & ~(_every(q, n) << x % q)
            m &= coprime[q]
            while g % q == 0:
                g //= q
        yield c, m


def _every(q, n):
    """Bits 0, q, 2q, ... below n and some beyond, by doubling shifts: shifted
    by s < q and cut to n bits, the row of the i in [0, n) with i = s mod q."""
    m, span = 1, q
    while span < n:
        m |= m << span
        span *= 2
    return m


def primes_below(n):
    """The primes p < n, as a list of ints."""
    spf = smallest_prime_factors(n - 1)
    return [k for k in range(2, len(spf)) if spf[k] == k]


def squarefree_products(primes, bound=None):
    """Yield (d, factors) for each squarefree product d <= bound of the given
    distinct primes (every product when bound is None), ``factors`` the
    ascending tuple of d's primes: d = 1 first, then depth first over the
    sorted primes, each branch cut at the first prime that takes d past the
    bound.  The lab's one walk over squarefree divisors."""
    primes = sorted(primes)
    stack = [(1, (), 0)]  # (d, its factors, the index of the first prime d may take)
    while stack:
        d, factors, i = stack.pop()
        yield d, factors
        j = len(primes) if bound is None else bisect.bisect_right(primes, bound // d, i)
        stack += [(d * primes[k], (*factors, primes[k]), k + 1) for k in range(j - 1, i - 1, -1)]


def _prime_divisors(n, spf=None):
    """The distinct primes dividing n, ascending ([] below 2), read off spf,
    ``smallest_prime_factors`` up to at least n (built when None)."""
    spf = spf or smallest_prime_factors(n)
    out = []
    while n > 1:
        out.append(q := spf[n])
        while n % q == 0:
            n //= q
    return out


def legendre(a, l):
    """The quadratic character (1, -1 or 0) of a mod an odd prime l, by Euler's criterion."""
    r = pow(a, (l - 1) // 2, l)
    return r if r < 2 else -1


def sp_order(g, l):
    """|Sp_2g(F_l)| = l^(g^2) prod_{i <= g} (l^(2i) - 1); GSp_2g has l - 1
    times as many elements."""
    order = l ** (g * g)
    for i in range(1, g + 1):
        order *= l ** (2 * i) - 1
    return order


def gl2_class_density(l, tr, det):
    """The share (l + chi(tr^2 - 4 det)) / (l^2 - 1), as a Fraction, of the
    matrices with trace tr in the det coset of GL2(F_l): l (l + chi) of its
    |SL2(F_l)| = l (l^2 - 1) elements, chi the quadratic character."""
    from fractions import Fraction

    return Fraction(l + legendre(tr * tr - 4 * det, l), l * l - 1)


class ExperimentConfig(namedtuple("ExperimentConfig",
                                  "family x_values l_values pcap out_dir workers seed",
                                  defaults=(".", 1, 0))):
    """One command's settings.  ``workers`` and ``seed`` are validated,
    then unused: every command runs in one process in a fixed order."""

    __slots__ = ()

    def validate(self):
        ints = (*self.x_values, *self.l_values, self.pcap, self.workers, self.seed)
        if not all(type(v) is int for v in ints):
            raise ConfigError("x, l, pcap, workers and seed must be integers")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError("out must be a nonempty path")
        if not self.x_values or list(self.x_values) != sorted(set(self.x_values)):
            raise ConfigError("x values must be nonempty and strictly increasing")
        if any(x < 1 for x in self.x_values):
            raise ConfigError("x values must be >= 1")
        if not self.l_values or len(set(self.l_values)) != len(self.l_values):
            raise ConfigError("l values must be nonempty and distinct")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        cpus = os.cpu_count() or 1
        if self.workers > cpus:
            raise InfeasibleError(f"workers = {self.workers} exceeds the {cpus} CPUs")
        if self.pcap < 1:
            raise ConfigError("pcap must be >= 1")
        if self.pcap > PCAP_LIMIT:
            raise InfeasibleError("prime cap exceeds feasibility limit")
        for l in self.l_values:
            _check_l(l)
        return self


def _check_l(l):
    """A prime l with 3 <= l <= L_LIMIT, else ConfigError / InfeasibleError."""
    if l < 3:
        raise ConfigError(f"l = {l}: l must be a prime >= 3")
    if l > L_LIMIT:
        raise InfeasibleError(f"l = {l} exceeds feasibility limit {L_LIMIT}")
    if _prime_divisors(l) != [l]:
        raise ConfigError(f"l = {l} is not prime")


def _check_x(x):
    """Height bound of the census and the class sieve, else InfeasibleError."""
    if x > X_LIMIT:
        raise InfeasibleError(f"x = {x} exceeds feasibility limit {X_LIMIT}")


def check_class_set(x, l, class_key):
    """A class sieve's class (tr, det) mod l, else ConfigError / InfeasibleError."""
    _check_l(l)
    _check_x(x)
    tr, det = class_key
    if det % l != 1:
        raise ConfigError(f"class determinant {det} must be 1 mod l = {l}")
    return tr % l, det % l


def check_goodred_x(family, x):
    """Height bound of goodred for the family's r, else InfeasibleError."""
    r, limit = family.r, GOODRED_X_LIMIT[family.r]
    if x > limit:
        raise InfeasibleError(f"x = {x} exceeds goodred feasibility limit {limit} for r = {r}")


class CurveFamily(namedtuple("CurveFamily", "genus A B quintic bad_locus excluded_primes")):
    """A 1- or 3-parameter family: y^2 = x^3 + A(t)x + B(t) (g=1) or
    y^2 = quintic(x; t1,t2,t3) (g=2, monic).  A and B are Polys for g=1
    only, ``quintic`` 6 Polys ascending in x, leading == 1, for g=2 only;
    ``excluded_primes`` is a frozenset."""

    __slots__ = ()

    @property
    def r(self):
        return self.genus * (self.genus + 1) // 2

    def to_json(self):
        import json

        doc = {
            "genus": self.genus,
            "bad_locus": self.bad_locus.to_terms(),
            "excluded_primes": sorted(self.excluded_primes),
        }
        if self.genus == 1:
            doc["A"] = self.A.to_terms()
            doc["B"] = self.B.to_terms()
        else:
            doc["quintic"] = [c.to_terms() for c in self.quintic]
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse a family document; ValueError on a malformed one."""
        import json

        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("family document nested past the JSON recursion limit") from None
        if not isinstance(doc, dict):
            raise ValueError("family document must be a JSON object")
        g = doc.get("genus")
        if not _is_int(g) or g not in (1, 2):
            raise ValueError("genus must be 1 or 2")
        r = g * (g + 1) // 2
        bad = _poly_from_terms(doc.get("bad_locus"), "bad_locus", r)
        if bad.is_zero():
            raise ValueError("bad_locus must be nonzero")
        excl = doc.get("excluded_primes")
        # no sieve reads a prime past PCAP_LIMIT, which bounds the primality test
        ok = isinstance(excl, list) and all(_is_int(p) and p <= PCAP_LIMIT for p in excl)
        spf = ok and smallest_prime_factors(max(excl, default=1))
        if not ok or not all(_prime_divisors(p, spf) == [p] for p in excl):
            raise ValueError(f"excluded_primes must be a list of primes up to {PCAP_LIMIT}")
        if g == 1:
            A = _poly_from_terms(doc.get("A"), "A", 1)
            B = _poly_from_terms(doc.get("B"), "B", 1)
            return cls(1, A, B, (), bad, frozenset(excl))
        quintic = doc.get("quintic")
        if not isinstance(quintic, list) or len(quintic) != 6:
            raise ValueError("quintic must list six coefficients, x^0 to x^5")
        quintic = tuple(_poly_from_terms(t, "quintic", r) for t in quintic)
        if quintic[5] != Poly.const(r, 1):
            raise ValueError("quintic must be monic: its x^5 coefficient must be 1")
        return cls(2, None, None, quintic, bad, frozenset(excl))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _poly_from_terms(terms, key, r):
    """A polynomial from terms [coefficient, e_1, .., e_r], all integers,
    exponents >= 0, total degree <= MAX_DEGREE, no exponent tuple twice."""
    if not isinstance(terms, list) or not all(
        isinstance(t, list) and len(t) == r + 1 and all(_is_int(v) for v in t)
        and min(t[1:]) >= 0
        for t in terms
    ):
        raise ValueError(f"{key}: each term must be [integer coefficient, "
                         f"{r} non-negative integer exponents]")
    if any(sum(t[1:]) > MAX_DEGREE for t in terms):
        raise ValueError(f"{key}: a term has total degree above {MAX_DEGREE}")
    if len({tuple(t[1:]) for t in terms}) < len(terms):
        raise ValueError(f"{key}: an exponent tuple is repeated")
    return Poly.from_terms(r, terms)


def default_elliptic_family():
    """y^2 = x^3 + 3(1-t)t x + 2(1-t)^2 t with bad locus t(1-t); 2, 3 excluded."""
    t = Poly.var(1, 0)
    A = 3 * (1 - t) * t
    B = 2 * (1 - t) ** 2 * t
    return CurveFamily(1, A, B, (), t * (1 - t), frozenset({2, 3}))


def default_genus2_family():
    """y^2 = x(x-1)(x-t1)(x-t2)(x-t3), Rosenhain-style 3-parameter family."""
    t1, t2, t3, x = (Poly.var(4, i) for i in range(4))
    f = x * (x - 1) * (x - t1) * (x - t2) * (x - t3)
    bad = t1 * t2 * t3 * (t1 - 1) * (t2 - 1) * (t3 - 1) * (t1 - t2) * (t1 - t3) * (t2 - t3)
    # drop x: the quintic's coefficients of x^0 .. x^5 and the bad locus as Polys in t1, t2, t3
    quintic = tuple(Poly(3, {e[:3]: c for e, c in f.terms.items() if e[3] == k}) for k in range(6))
    bad = Poly(3, {e[:3]: c for e, c in bad.terms.items()})
    return CurveFamily(2, None, None, quintic, bad, frozenset({2}))

