"""Experiment orchestration: the surjectivity census, class-set sieving,
and the good-reduction floor, shared by the CLI and the test suite.

The census enumerates parameters t of bounded height, gathers char-poly
classes of Frobenius over all good primes up to a cap, and issues a
per-(t, l) verdict.  A point enters the exceptional proxy when it is
undecided for at least one l; verdicts depend only on (t, l, p-cap), so the
proxy is monotone under enlarging the height window.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from .brun import primes_below
from .curves import BAD_SENTINEL, ap_table, surjectivity_verdict
from .heights import enumerate_affine


class ConfigError(Exception):
    """Malformed configuration; CLI exit code 2."""


class InfeasibleError(Exception):
    """Caps beyond module feasibility; CLI exit code 3."""


PCAP_LIMIT = 10**4
L_LIMIT = 13
X_LIMIT = 1000  # census and class sieve only: both hold all (2x + 1)^2 candidates


@dataclass
class ExperimentConfig:
    family: object
    x_values: tuple
    l_values: tuple
    pcap: int
    out_dir: str = "."
    workers: int = 1
    seed: int = 0

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
        if not self.l_values:
            raise ConfigError("l values must be nonempty")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
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
    if l not in primes_below(L_LIMIT + 1):
        raise ConfigError(f"l = {l} is not prime")


def _check_x(x):
    """Height bound of the census and the class sieve, else InfeasibleError."""
    if x > X_LIMIT:
        raise InfeasibleError(f"x = {x} exceeds feasibility limit {X_LIMIT}")


def _table_worker(args):
    family_json, p = args
    from .curves import CurveFamily

    return p, ap_table(CurveFamily.from_json(family_json), p)


def frobenius_tables(family, pcap, workers=1, seed=0):
    """Per-prime a_p tables over all residues; parallel map, merged by p."""
    primes = [p for p in primes_below(pcap + 1) if p not in family.excluded_primes]
    order = list(primes)
    random.Random(seed).shuffle(order)  # scheduling only; merge is by key
    if workers > 1:
        import multiprocessing

        fam_json = family.to_json()
        with multiprocessing.Pool(workers) as pool:
            result = dict(pool.map(_table_worker, [(fam_json, p) for p in order]))
        return {p: result[p] for p in primes}
    return {p: ap_table(family, p) for p in primes}


@dataclass(frozen=True)
class CensusRow:
    x: int
    n_points: int
    surjective: dict  # l -> count
    undecided: dict  # l -> count
    undecided_any: int

    @property
    def fraction(self):
        return self.undecided_any / self.n_points if self.n_points else 0.0

    def csv_row(self, l_values):
        row = [self.x, self.n_points]
        for l in l_values:
            row += [self.surjective[l], self.undecided[l]]
        row += [self.undecided_any, f"{self.fraction:.6f}"]
        return row


def _good_aps(tables, t):
    """(p, a_p) for every tabled prime p not dividing den(t) at which the
    specialization at t has good reduction."""
    num, den = t.numerator, t.denominator
    for p, table in tables.items():
        if den % p:
            ap = int(table[num * pow(den, -1, p) % p])
            if ap != BAD_SENTINEL:
                yield p, ap


def point_class_sets(t, tables, l_values):
    """Observed char-poly classes {(a_p mod l, p mod l)} per l for one t."""
    classes = {l: set() for l in l_values}
    for p, ap in _good_aps(tables, t):
        for l in l_values:
            if p != l:
                classes[l].add((ap % l, p % l))
    return classes


def census(family, x_values, l_values, pcap, workers=1, seed=0):
    """CensusRow per x.  Verdicts are computed once at the largest x and
    restricted, which also enforces the monotone-containment invariant."""
    _check_x(max(x_values))
    return _census(family, x_values, l_values, frobenius_tables(family, pcap, workers, seed))


def _census(family, x_values, l_values, tables):
    x_values = sorted(x_values)
    points = [pt.coords[0] for pt in enumerate_affine(1, x_values[-1], bad_locus=family.bad_locus)]
    verdicts = {}
    for t in points:
        cls = point_class_sets(t, tables, l_values)
        verdicts[t] = {
            l: surjectivity_verdict(cls[l], l, family.genus) for l in l_values
        }
    rows = []
    for x in x_values:
        # the height of t = n/d in lowest terms is max(|n|, d)
        sub = [t for t in points if max(abs(t.numerator), t.denominator) <= x]
        surj = {l: 0 for l in l_values}
        und = {l: 0 for l in l_values}
        any_und = 0
        for t in sub:
            bad_some = False
            for l in l_values:
                if verdicts[t][l] == "surjective":
                    surj[l] += 1
                else:
                    und[l] += 1
                    bad_some = True
            if bad_some:
                any_und += 1
        rows.append(CensusRow(x, len(sub), surj, und, any_und))
    return rows, verdicts


@dataclass(frozen=True)
class ClassSetReport:
    l: int
    class_key: tuple
    x: int
    Q: int
    support: tuple
    count: int
    bound: float  # (coset/|C|) * l * log x / sqrt(x) * x^2, up to constant

    def to_json(self):
        return json.dumps(
            {
                "l": self.l,
                "class": list(self.class_key),
                "x": self.x,
                "Q": self.Q,
                "support": list(self.support),
                "count": self.count,
                "bound_up_to_constant": self.bound,
            },
            sort_keys=True,
        )


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
    the whole support, so C must have det = 1."""
    _check_l(l)
    _check_x(x)
    tr0, det0 = class_key
    if det0 % l != 1:
        raise ConfigError(f"class determinant {det0} must be 1 mod l = {l}")
    support_primes = _support_primes(family, l, pcap, Q)
    tables = {p: ap_table(family, p) for p in support_primes}
    count = sum(
        all(ap % l != tr0 % l for _, ap in _good_aps(tables, pt.coords[0]))
        for pt in enumerate_affine(1, x, bad_locus=family.bad_locus)
    )
    # bound shape: (|G^g| / |C|) * l * log x / sqrt(x) * x^{r+1}
    from .groups import GroupSpec, charpoly_class_density

    dens = charpoly_class_density(GroupSpec(1, l, "gsp"), det0)
    frac = dens.get(tr0 % l, Fraction(0))
    inv_density = float(1 / frac) if frac else float("inf")
    bound = inv_density * l * math.log(x) / math.sqrt(x) * x**2
    return ClassSetReport(l, tuple(class_key), x, int(Q), support_primes, count, bound)


def exceptional_containment_check(family, x, l, pcap, Q, workers=1, seed=0):
    """Every census-undecided point survives at least one class sieve:
    the exceptional proxy sits inside the union of the Y_C."""
    _check_x(x)
    tables = frobenius_tables(family, pcap, workers, seed)
    _, verdicts = _census(family, [x], [l], tables)
    undecided = [t for t, v in verdicts.items() if v[l] != "surjective"]
    support = {p: tables[p] for p in _support_primes(family, l, pcap, Q)}
    # t survives the C-sieve for C = (tr0, 1) iff tr0 is never realized
    failures = [
        t for t in undecided if len({ap % l for _, ap in _good_aps(support, t)}) == l
    ]
    return len(undecided), failures


# ----------------------------------------------------------------- artifacts

CENSUS_HEADER_BASE = ["x", "n_points"]


def write_census_csv(path, rows, l_values):
    header = list(CENSUS_HEADER_BASE)
    for l in l_values:
        header += [f"surjective_l{l}", f"undecided_l{l}"]
    header += ["undecided_any", "fraction"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row.csv_row(l_values))


def write_goodred_csv(path, censuses):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "Q", "count", "floor_estimate", "ratio"])
        for c in censuses:
            w.writerow(c.csv_row())


def merged_report(out_dir):
    """Deterministic JSON merge of prior command outputs; idempotent."""
    sources = {}
    for name in ("census.csv", "goodred.csv"):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing input: {path}")
        with open(path, newline="", encoding="utf-8") as fh:
            sources[name] = [row for row in csv.reader(fh)]
    return json.dumps(sources, sort_keys=True, separators=(",", ":")) + "\n"
