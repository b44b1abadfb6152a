"""Acceptance gate: one test per headline criterion, each printing a
PASS/FAIL line so the suite output doubles as the experiment log."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sievelab.brun import good_reduction_census, primes_below, sandwich
from sievelab.census import census, exceptional_containment_check
from sievelab.chebotarev import chebotarev_report, envelope_check, genus2_census
from sievelab.curves import default_elliptic_family, default_genus2_family
from sievelab.heights import SCHANUEL_C1, count_projective
from sievelab.sieve import SieveSupport, SievingSet, large_sieve_L

from group_oracle import (
    GroupSpec,
    _code_ops,
    class_table,
    group_order,
    jordan_check_elements,
    pm1_lifting_check,
    property1_check,
    spec_elements,
)
from oracles import ap_count, ap_count_pointloop, genus2_counts, reduction_type, specialize


def _report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_acceptance_1_schanuel_count(capsys):
    t0 = time.perf_counter()
    count = count_projective(1, 500)
    elapsed = time.perf_counter() - t0
    main = SCHANUEL_C1 * 500**2
    ok = abs(count / main - 1) <= 0.05 and elapsed < 5
    _report(capsys, 1, "height-ball count", ok)


def test_acceptance_2_good_reduction_floor(capsys):
    fam = default_elliptic_family()
    t0 = time.perf_counter()
    c3 = good_reduction_census(fam, 10**3, int(10**1.5))
    c4 = good_reduction_census(fam, 10**4, 10**2)
    elapsed = time.perf_counter() - t0
    calibrated = c3.count * math.log(10**3) ** 2 / 10**6
    ratio4 = c4.count * math.log(10**4) ** 2 / 10**8
    ok = ratio4 >= 0.8 * calibrated and elapsed < 120
    _report(capsys, 2, "good-reduction floor", ok)


def test_acceptance_3_brun_sandwich(capsys):
    X = list(range(1, 1001))
    primes = tuple(primes_below(30))
    support = SieveSupport(primes, 30)
    sets = {p: SievingSet(p, 1, frozenset({(0,)})) for p in primes}
    t0 = time.perf_counter()
    ok = True
    for b in (1, 2, 3):
        rep = sandwich(X, lambda t: (t,), sets, support, b=b)
        ok = ok and rep.lower <= rep.exact <= rep.upper
        ok = ok and isinstance(rep.lower, Fraction) and isinstance(rep.upper, Fraction)
    full = sandwich(X, lambda t: (t,), sets, support)
    ok = ok and full.lower == full.exact == full.upper
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1
    _report(capsys, 3, "Bonferroni sandwich", ok)


def _L_oracle(primes, Q, densities):
    total = Fraction(0)
    pset = sorted(primes)
    for a in range(1, Q + 1):
        m, fs = a, []
        good = True
        for p in pset:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    good = False
                    break
                fs.append(p)
        if good and m == 1:
            term = Fraction(1)
            for p in fs:
                term *= densities[p] / (1 - densities[p])
            total += term
    return total


def test_acceptance_4_large_sieve_oracle(capsys):
    rng = random.Random(2024)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    ok = True
    for _ in range(50):
        k = rng.randint(1, 6)
        primes = tuple(sorted(rng.sample(pool, k)))
        Q = rng.randint(max(primes) + 1, 10**4)
        densities = {p: Fraction(rng.randint(1, p - 1), p) for p in primes}
        got = large_sieve_L(SieveSupport(primes, Q), densities)
        ok = ok and got == _L_oracle(primes, Q, densities)
    _report(capsys, 4, "L(Q) oracle equivalence", ok)


def test_acceptance_5_frobenius_oracles(capsys):
    fam = default_elliptic_family()
    rng = random.Random(99)
    params = []
    while len(params) < 20:
        num = rng.randint(-30, 30)
        den = rng.randint(1, 30)
        t = Fraction(num, den)
        if t not in (0, 1) and t not in params:
            params.append(t)
    ok = True
    for t in params:
        s = specialize(fam, (t,))
        for p in primes_below(101):
            if reduction_type(s, p) != "good":
                continue
            a1 = ap_count(s, p)
            a2 = ap_count_pointloop(s, p)
            ok = ok and a1 == a2 and a1 * a1 <= 4 * p
    _report(capsys, 5, "Frobenius two-oracle agreement", ok)


def test_acceptance_6_chebotarev_decay(capsys):
    t0 = time.perf_counter()
    reports = chebotarev_report(default_elliptic_family(), 5, 3, [1, 2, 3, 4])
    elapsed = time.perf_counter() - t0
    ok = all(sum(c.frequencies.values()) == 1 for c in reports)
    devs = [c.deviation for c in reports]
    ok = ok and all(devs[i + 1] < devs[i] for i in range(3))
    c_emp, _ = envelope_check(reports)
    ok = ok and float(devs[3]) <= c_emp * 5 ** (-3 / 2)
    ok = ok and elapsed < 120
    _report(capsys, 6, "function-field equidistribution decay", ok)


def test_acceptance_7_group_identities(capsys):
    ok = True
    for l in (3, 5, 7):
        for flavor in ("gsp", "sp"):
            spec = GroupSpec(1, l, flavor)
            ok = ok and len(spec_elements(spec)) == group_order(spec)
        gl2 = spec_elements(GroupSpec(1, l, "gsp"))
        ct = class_table(GroupSpec(1, l, "gsp"), "brute")
        ok = ok and len(ct.entries) == l * l - 1 and ct.total == len(gl2)
    ok = ok and len(spec_elements(GroupSpec(2, 3, "sp"))) == 51840
    for flavor in ("gsp", "sp"):
        ok = ok and jordan_check_elements(spec_elements(GroupSpec(1, 3, flavor)), *_code_ops(3, 2))
    ok = ok and pm1_lifting_check(1, 3) and pm1_lifting_check(2, 3)
    rep1 = property1_check(1, [3, 5, 7, 11, 13])
    rep2 = property1_check(2, [3])
    ok = ok and rep1.passes and rep2.passes
    _report(capsys, 7, "group orders, classes, lemmas", ok)


def test_acceptance_8_census_trend(capsys):
    fam = default_elliptic_family()
    t0 = time.perf_counter()
    rows, (num, den), surjective = census(fam, [20, 100], [5, 7, 11, 13], 1000)
    frac20, frac100 = rows[0].fraction, rows[1].fraction
    ok = frac100 < frac20
    # monotone containment: small-window run agrees with the restriction
    rows20, (num20, den20), surjective20 = census(fam, [20], [5, 7, 11, 13], 1000)
    small = np.maximum(np.abs(num), den) <= 20
    ok = ok and np.array_equal(num[small], num20) and np.array_equal(den[small], den20)
    ok = ok and np.array_equal(surjective[small], surjective20)
    ok = ok and rows20[0].undecided_any == rows[0].undecided_any
    # exceptional set sits inside the union of the class sieves
    n_undecided, failures = exceptional_containment_check(fam, 20, 5, 1000, 200)
    ok = ok and failures == []
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    _report(capsys, 8, "surjectivity census trend", ok)


def test_acceptance_9_genus2_desk_check(capsys):
    g2 = default_genus2_family()
    rng = random.Random(5)
    ok = True
    checked = 0
    while checked < 20:
        t = tuple(rng.sample(range(2, 30), 3))
        p = rng.choice([p for p in primes_below(51) if p > 3])
        s = specialize(g2, t)
        if reduction_type(s, p) != "good":
            continue
        n1, n2 = genus2_counts(s, p)  # Weil/parity asserted inside
        a1 = p + 1 - n1
        ok = ok and a1 * a1 <= 16 * p
        ok = ok and (a1 * a1 - (p * p + 1 - n2)) % 2 == 0
        checked += 1
    c = genus2_census(g2, 5, 3)
    ok = ok and sum(c.frequencies.values()) == 1
    ok = ok and c.predicted is not None and sum(c.predicted.values()) == 1
    _report(capsys, 9, "genus-2 counts and census", ok)
