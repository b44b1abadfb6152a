"""Output checks for the benchmark operations.

Every expected value here is computed by this file's own code (prime sieve,
Legendre-sum a_p, Serre's criterion, GL2(F_3) subgroup lattice, brute
counts) or is a property the method must have.  Nothing is compared with a
stored copy of an earlier output.

Each ``check_<op>`` takes the operation's parameters and its output
directory and returns a list of problems; an empty list means the output is
correct.  A problem that starts with ``KNOWN_FAULT`` is the one fault the
benchmark keeps on purpose (see README.md).
"""

from __future__ import annotations

import ast
import csv
import functools
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np

KNOWN_FAULT = "known fault (l = 3 verdict):"

# The default genus-1 family: y^2 = x^3 + 3(1-t)t x + 2(1-t)^2 t, primes 2
# and 3 excluded, bad locus t(1 - t).
EXCLUDED = (2, 3)


# ------------------------------------------------------------ arithmetic


@functools.cache
def primes_upto(n):
    """Primes p <= n."""
    if n < 2:
        return ()
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for k in range(2, math.isqrt(n) + 1):
        if is_p[k]:
            is_p[k * k :: k] = False
    return tuple(int(p) for p in np.flatnonzero(is_p))


def points_a1(x):
    """(num, den) arrays of t = num/den in lowest terms, den >= 1,
    max(|num|, den) <= x, t not in {0, 1}."""
    nums, dens = [], []
    n = np.arange(-x, x + 1, dtype=np.int64)
    for d in range(1, x + 1):
        keep = np.gcd(n, d) == 1
        if d == 1:
            keep &= (n != 0) & (n != 1)
        nums.append(n[keep])
        dens.append(np.full(int(keep.sum()), d, dtype=np.int64))
    return np.concatenate(nums), np.concatenate(dens)


@functools.cache
def point_count_a1(x):
    return len(points_a1(x)[0])


BAD = np.iinfo(np.int64).min


def legendre_ap(num, den, p):
    """a_p of the default family at each t = num/den by the character sum
    -sum_x chi(x^3 + A x + B); BAD where p | den or the curve is singular
    mod p."""
    chi = np.full(p, -1, dtype=np.int64)
    chi[0] = 0
    chi[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
    out = np.full(len(num), BAD, dtype=np.int64)
    good = den % p != 0
    inv = np.array([pow(int(d), -1, p) for d in den[good] % p], dtype=np.int64)
    r = (num[good] % p) * inv % p
    residues, where = np.unique(r, return_inverse=True)
    A = 3 * (1 - residues) * residues % p
    B = 2 * (1 - residues) ** 2 % p * residues % p
    xs = np.arange(p, dtype=np.int64)
    f = (xs**3 % p + A[:, None] * xs + B[:, None]) % p
    ap = -chi[f].sum(axis=1)
    disc = (4 * A**3 + 27 * B**2) % p
    ap[disc == 0] = BAD
    out[good] = ap[where]
    return out


def _generates_units(dets, l):
    seen, frontier = {1}, {1}
    while frontier:
        frontier = {a * d % l for a in frontier for d in dets} - seen
        seen |= frontier
    return len(seen) == l - 1


def serre_surjective(classes, l):
    """Serre's criterion (Invent. Math. 15, 1972, sec. 2.8, Prop. 19) for
    l >= 5: the classes {(tr, det)} of a subgroup of GL2(F_l) certify that
    it is all of GL2(F_l) when det generates F_l^x and there are a split and
    a nonsplit element with nonzero trace and an element whose
    u = tr^2/det is outside {0, 1, 2, 4} with u^2 - 3u + 1 != 0."""
    squares = {v * v % l for v in range(1, l)}
    if not _generates_units({d for _, d in classes}, l):
        return False
    split = nonsplit = excluder = False
    for tr, d in classes:
        disc = (tr * tr - 4 * d) % l
        if tr and disc in squares:
            split = True
        if tr and disc and disc not in squares:
            nonsplit = True
        u = tr * tr * pow(d, -1, l) % l
        if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % l:
            excluder = True
    return split and nonsplit and excluder


# ------------------------------------------------- GL2(F_3) subgroup lattice


def _gl2_3():
    return [m for m in itertools.product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3]


def _mul3(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % 3,
        (a[0] * b[1] + a[1] * b[3]) % 3,
        (a[2] * b[0] + a[3] * b[2]) % 3,
        (a[2] * b[1] + a[3] * b[3]) % 3,
    )


def _generated(gens):
    group = {(1, 0, 0, 1)}
    frontier = set(group)
    while frontier:
        frontier = {_mul3(h, g) for h in frontier for g in gens} - group
        group |= frontier
    return frozenset(group)


@functools.cache
def proper_subgroups_covering_gl2_3():
    """Proper subgroups of GL2(F_3) whose (tr, det) classes are all six
    classes of GL2(F_3), found by enumerating the whole subgroup lattice."""
    elements = _gl2_3()
    subgroups = {_generated([g]) for g in elements}
    frontier = set(subgroups)
    while frontier:
        new = set()
        for h in frontier:
            for g in elements:
                if g not in h:
                    k = _generated(list(h) + [g])
                    if k not in subgroups:
                        new.add(k)
        subgroups |= new
        frontier = new
    if len(subgroups) < 10 or frozenset(elements) not in subgroups:
        raise AssertionError("GL2(F_3) subgroup enumeration failed")

    def classes(h):
        return {((m[0] + m[3]) % 3, (m[0] * m[3] - m[1] * m[2]) % 3) for m in h}

    full = classes(elements)
    return [h for h in subgroups if len(h) < len(elements) and classes(h) == full]


# ------------------------------------------------------------- expectations


@functools.cache
def expected_surjective(x, pcap, l_values):
    """{l: surjective count} at height x for l >= 5, from the
    Legendre-sum a_p and Serre's criterion over good primes p <= pcap."""
    num, den = points_a1(x)
    classes = {l: [set() for _ in num] for l in l_values}
    for p in primes_upto(pcap):
        if p in EXCLUDED:
            continue
        ap = legendre_ap(num, den, p)
        for i in np.flatnonzero(ap != BAD):
            for l in l_values:
                if p != l:
                    classes[l][i].add((int(ap[i]) % l, p % l))
    return {l: sum(serre_surjective(c, l) for c in classes[l]) for l in l_values}


@functools.cache
def expected_sifted_count(x, l, class_key, support):
    """Points at height x whose Frobenius class at every support prime
    avoids trace tr0 (det is 1 mod l there by the choice of support)."""
    num, den = points_a1(x)
    alive = np.ones(len(num), dtype=bool)
    for p in support:
        ap = legendre_ap(num, den, p)
        hit = (ap != BAD) & (ap % l == class_key[0] % l)
        alive &= ~hit
    return int(alive.sum())


def projective_points(x):
    """Canonical points (a, b) of P^1(Q) with height <= x, as two arrays."""
    b = np.arange(-x, x + 1, dtype=np.int64)
    rows_a, rows_b = [np.array([0])], [np.array([1])]
    for a in range(1, x + 1):
        keep = np.gcd(a, b) == 1
        rows_a.append(np.full(int(keep.sum()), a, dtype=np.int64))
        rows_b.append(b[keep])
    return np.concatenate(rows_a), np.concatenate(rows_b)


@functools.cache
def expected_good_reduction(x):
    """(Q, |B(x)|, count): points of P^1(Q) of height <= x where the
    homogenised bad locus b(a - b) is a unit mod every prime p < Q, p >= 5."""
    Q = max(2, math.isqrt(x))
    a, b = projective_points(x)
    good = np.ones(len(a), dtype=bool)
    for p in primes_upto(Q - 1):
        if p not in EXCLUDED:
            good &= (b * (a - b)) % p != 0
    return Q, len(a), int(good.sum())


def large_sieve_L(Q, support):
    """L(Q) with nu_p = (2p - 1)/p^2, the density of b(a - b) = 0 mod p."""
    total = Fraction(0)
    for k in range(len(support) + 1):
        for combo in itertools.combinations(support, k):
            if math.prod(combo) <= Q:
                w = Fraction(1)
                for p in combo:
                    nu = Fraction(2 * p - 1, p * p)
                    w *= nu / (1 - nu)
                total += w
    return total


def gl2_trace_density(l, delta, tr):
    """#{g in GL2(F_l): tr g = tr, det g = delta} / #SL2(F_l), by the
    closed form l (l + chi(tr^2 - 4 delta))."""
    disc = (tr * tr - 4 * delta) % l
    chi = 0 if disc == 0 else (1 if pow(disc, (l - 1) // 2, l) == 1 else -1)
    return Fraction(l * (l + chi), l * (l * l - 1))


# ------------------------------------------------------------------ helpers


def _fr(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _close(a, b, rel=1e-6):
    return abs(a - b) <= rel * max(1.0, abs(b))


# ------------------------------------------------------------------- checks


def check_census(args, out):
    xs, pcap = args["x"], args["pcap"]
    l_values = tuple(l for l in primes_upto(args["lmax"]) if l >= 3) if "lmax" in args else (5, 7, 11, 13)
    rows = _read_csv(os.path.join(out, "census.csv"))
    header, body = rows[0], rows[1:]
    problems = []
    if [int(r[0]) for r in body] != list(xs):
        return [f"census rows are for x = {[r[0] for r in body]}, expected {xs}"]
    for row in body:
        rec = dict(zip(header, row))
        x, n = int(rec["x"]), int(rec["n_points"])
        if n != point_count_a1(x):
            problems.append(f"census x={x}: n_points {n} != {point_count_a1(x)}")
        for l in l_values:
            s, u = int(rec[f"surjective_l{l}"]), int(rec[f"undecided_l{l}"])
            if s + u != n:
                problems.append(f"census x={x}: surjective_l{l} + undecided_l{l} != n_points")
        covering = proper_subgroups_covering_gl2_3()
        if 3 in l_values and covering and int(rec["surjective_l3"]) != 0:
            problems.append(
                f"{KNOWN_FAULT} census x={x}: surjective_l3 = {rec['surjective_l3']}, "
                f"but {len(covering)} proper subgroups of GL2(F_3) meet all six "
                "(tr, det) classes, so it must be 0"
            )
        if not _close(float(rec["fraction"]), int(rec["undecided_any"]) / n):
            problems.append(f"census x={x}: fraction != undecided_any / n_points")
    rec = dict(zip(header, body[0]))
    big_l = tuple(l for l in l_values if l >= 5)
    surj = expected_surjective(xs[0], pcap, big_l)
    for l in big_l:
        if int(rec[f"surjective_l{l}"]) != surj[l]:
            problems.append(
                f"census x={xs[0]}: surjective_l{l} = {rec[f'surjective_l{l}']}, "
                f"Serre's criterion gives {surj[l]}"
            )
    return problems


def check_sifted_class_set(args, out):
    l, key, Q, pcap = args["l"], tuple(args["class"]), args["Q"], args["pcap"]
    x = args["x"][-1]
    path = os.path.join(out, f"class_set_l{l}_tr{key[0]}.json")
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    support = tuple(p for p in primes_upto(Q - 1) if p % l == 1 and p <= pcap and p not in EXCLUDED)
    problems = []
    if (rep["l"], tuple(rep["class"]), rep["x"], rep["Q"]) != (l, key, x, Q):
        problems.append("class set: parameters do not echo the request")
    if tuple(rep["support"]) != support:
        problems.append(f"class set: support {rep['support']} != {list(support)}")
    want = expected_sifted_count(x, l, key, support)
    if rep["count"] != want:
        problems.append(f"class set: count {rep['count']} != independent sift {want}")
    if not 0 < rep["count"] < point_count_a1(x):
        problems.append(f"class set: count {rep['count']} outside (0, n_points)")
    return problems


def check_goodred(args, out):
    rows = _read_csv(os.path.join(out, "goodred.csv"))[1:]
    problems = []
    if [int(r[0]) for r in rows] != list(args["x"]):
        return [f"goodred rows are for x = {[r[0] for r in rows]}, expected {args['x']}"]
    scaled = []
    for x_s, Q_s, count_s, floor_s, ratio_s in rows:
        x, Q, count = int(x_s), int(Q_s), int(count_s)
        eQ, size, ecount = expected_good_reduction(x)
        if Q != eQ:
            problems.append(f"goodred x={x}: Q {Q} != {eQ}")
        if count != ecount:
            problems.append(f"goodred x={x}: count {count} != brute count {ecount}")
        if count > size:
            problems.append(f"goodred x={x}: count exceeds |B(x)| = {size}")
        floor = x**2 / math.log(eQ) ** 2
        if not (_close(float(floor_s), floor) and _close(float(ratio_s), count / floor)):
            problems.append(f"goodred x={x}: floor or ratio column is wrong")
        scaled.append(count * math.log(eQ) ** 2 / x**2)
    # The (log Q)^kappa floor: the scaled count at the largest x keeps at
    # least 0.8 of its value at the smallest x.
    if scaled[-1] < 0.8 * scaled[0]:
        problems.append("goodred: (log Q)^2 floor fails at the largest x")
    return problems


def check_report(args, out):
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    want = {name: _read_csv(os.path.join(out, name)) for name in ("census.csv", "goodred.csv")}
    return [] if rep == want else ["report.json does not hold exactly the census and goodred rows"]


def check_sandwich(args, out):
    x = args["x"]
    with open(os.path.join(out, "sandwich.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    Q, size, count = expected_good_reduction(x)
    support = tuple(p for p in primes_upto(Q - 1) if p not in EXCLUDED)
    problems = []
    if (rep["Q"], tuple(rep["support"]), rep["n_points"]) != (Q, support, size):
        problems.append("sandwich: Q, support or |B(x)| is wrong")
    main = Fraction(size)
    for p in support:
        main *= 1 - Fraction(2 * p - 1, p * p)
    depths = set()
    for row in rep["sandwich"]:
        lo, hi, exact = _fr(row["lower"]), _fr(row["upper"]), row["exact"]
        depths.add(row["depth"])
        if exact != count:
            problems.append(f"sandwich depth {row['depth']}: exact {exact} != brute count {count}")
        if not lo <= exact <= hi:
            problems.append(f"sandwich depth {row['depth']}: {lo} <= {exact} <= {hi} fails")
        if row["depth"] is None and not lo == exact == hi:
            problems.append("sandwich: full Moebius weights do not give lower = exact = upper")
        if _fr(row["main_term"]) != main:
            problems.append(f"sandwich depth {row['depth']}: main term is wrong")
    if depths != set(args["depths"]) | {None}:
        problems.append(f"sandwich: depths {sorted(depths, key=str)} missing some")
    goodred = os.path.join(out, "goodred.csv")
    if os.path.exists(goodred):
        for row in _read_csv(goodred)[1:]:
            if int(row[0]) == x and int(row[2]) != rep["sandwich"][-1]["exact"]:
                problems.append("sandwich: exact differs from the goodred count at the same x")
    if _fr(rep["L_of_Q"]) != large_sieve_L(Q, support):
        problems.append("sandwich: L(Q) differs from the independent sum")
    return problems


def _classes(table):
    return {ast.literal_eval(k): _fr(v) for k, v in table.items()}


def check_chebotarev(args, out):
    q, l, ns = args["q"], args["l"], args["n"]
    with open(os.path.join(out, "chebotarev.json"), encoding="utf-8") as fh:
        reps = json.load(fh)
    problems = []
    devs = []
    for n, rep in zip(ns, reps):
        freq, pred = _classes(rep["frequencies"]), _classes(rep["predicted"])
        # Delta = -1728 (1 - t)^3 t^2 vanishes only at t = 0 and t = 1.
        if rep["n"] != n or rep["n_points"] != q**n - 2:
            problems.append(f"chebotarev n={n}: n_points {rep['n_points']} != q^n - 2")
        if sum(freq.values()) != 1:
            problems.append(f"chebotarev n={n}: frequencies do not sum to 1")
        delta = pow(q, n, l)
        want = {}
        for tr in range(l):
            key = (min(tr, -tr % l), delta)
            want[key] = want.get(key, 0) + gl2_trace_density(l, delta, tr)
        if pred != want:
            problems.append(f"chebotarev n={n}: predictions differ from l(l + chi(t^2 - 4 delta))")
        dev = max(abs(freq.get(k, 0) - want.get(k, 0)) for k in set(freq) | set(want))
        if not _close(rep["deviation"], float(dev)):
            problems.append(f"chebotarev n={n}: deviation {rep['deviation']} != {float(dev)}")
        devs.append(dev)
    if len(reps) != len(ns):
        problems.append("chebotarev: wrong number of censuses")
    if any(b >= a for a, b in zip(devs, devs[1:])):
        problems.append("chebotarev: deviations do not strictly decrease in n")
    if any(float(d) > float(devs[0]) * q ** (-(n - ns[0]) / 2) + 1e-12 for n, d in zip(ns, devs)):
        problems.append("chebotarev: the q^(-n/2) envelope fails")
    return problems


def check_genus2_census(args, out):
    q = args["q"]
    with open(os.path.join(out, "genus2_census.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    problems = []
    # Good parameters are the ordered triples of distinct values outside {0, 1}.
    if rep["n_points"] != (q - 2) * (q - 3) * (q - 4):
        problems.append(f"genus2: n_points {rep['n_points']} != (q-2)(q-3)(q-4)")
    if sum(_classes(rep["frequencies"]).values()) != 1:
        problems.append("genus2: frequencies do not sum to 1")
    return problems


CHECKS = {
    "census": check_census,
    "sifted_class_set": check_sifted_class_set,
    "goodred": check_goodred,
    "report": check_report,
    "sandwich": check_sandwich,
    "chebotarev": check_chebotarev,
    "genus2_census": check_genus2_census,
}
