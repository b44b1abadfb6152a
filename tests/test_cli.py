import ast
import contextlib
import csv
import functools
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab.census import (
    _sweep,
    _trace_table,
    census,
    exceptional_containment_check,
    sifted_class_set,
    witness_lut,
)
from sievelab.cli import build_parser, load_config, main
from sievelab.config import (
    L_LIMIT,
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    _check_l,
    primes_below,
)
from sievelab.curves import (
    BAD_SENTINEL,
    CurveFamily,
    ap_table,
    default_elliptic_family,
    default_genus2_family,
)
from sievelab.heights import count_projective
from sievelab.polynomials import Poly

from oracles import surjectivity_verdict

GOOD_FAMILY = json.loads(default_elliptic_family().to_json())
GOOD_G2 = json.loads(default_genus2_family().to_json())
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# the records are named tuples: a dataclass would load these at import
RECORD_MODULES = ["dataclasses", "inspect"]
# nested past the JSON decoder's recursion limit
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def _oracle_points(x, bad_locus):
    """Every t in A^1(Q) of height <= x off the bad locus, as Fractions
    ordered by denominator, then numerator."""
    return [
        Fraction(n, d)
        for d in range(1, x + 1)
        for n in range(-x, x + 1)
        if math.gcd(n, d) == 1 and bad_locus(Fraction(n, d)) != 0
    ]


def _oracle_classes(points, tables, l_values):
    """The per-point census loop: the classes (a_p mod l, p mod l) of each
    t over the tabled primes, as one dict l -> set per point."""
    out = []
    for t in points:
        classes = {l: set() for l in l_values}
        for p, table in tables.items():
            if t.denominator % p:
                ap = int(table[t.numerator * pow(t.denominator, -1, p) % p])
                if ap != BAD_SENTINEL:
                    for l in l_values:
                        if p != l:
                            classes[l].add((ap % l, p % l))
        out.append(classes)
    return out


def _record_ap_calls(monkeypatch, names):
    """The primes at which the census module calls the named a_p
    evaluators (``ap_table``, and ``ap_sums`` with a block of primes), one
    entry per prime, appended as they are made."""
    from sievelab import census as census_mod

    calls = []
    for name in names:
        real = getattr(census_mod, name)

        def counting(family, p, *rest, real=real):
            calls.extend(p if isinstance(p, list) else [p])
            return real(family, p, *rest)

        monkeypatch.setattr(census_mod, name, counting)
    return calls


class TestConfigValidation:
    def _cfg(self, **kw):
        base = dict(
            family=default_elliptic_family(),
            x_values=(10, 20),
            l_values=(5,),
            pcap=100,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_valid(self):
        self._cfg().validate()

    def test_x_must_increase(self):
        with pytest.raises(ConfigError):
            self._cfg(x_values=(20, 10)).validate()

    def test_infeasible_pcap(self):
        with pytest.raises(InfeasibleError):
            self._cfg(pcap=10**6).validate()

    def test_infeasible_l(self):
        with pytest.raises(InfeasibleError):
            self._cfg(l_values=(17,)).validate()


class TestCensus:
    def test_monotone_containment(self):
        fam = default_elliptic_family()
        rows, (num, den), surjective = census(fam, [10, 20], [5], 200)
        # verdicts at the small window equal the restriction of the large one
        rows_small, (num_small, den_small), surjective_small = census(fam, [10], [5], 200)
        small = np.maximum(np.abs(num), den) <= 10
        assert np.array_equal(num[small], num_small)
        assert np.array_equal(den[small], den_small)
        assert np.array_equal(surjective[small], surjective_small)
        assert rows[0].n_points == rows_small[0].n_points
        assert rows[0].undecided_any == rows_small[0].undecided_any

    def test_b_count_matches_heights(self):
        fam = default_elliptic_family()
        rows, _, _ = census(fam, [15], [5], 100)
        assert rows[0].n_points == len(_oracle_points(15, fam.bad_locus))

    @pytest.mark.parametrize("x, pcap, shift", [(60, 200, 0), (20, 1000, 0), (40, 40, 2)])
    def test_verdicts_match_point_loop(self, x, pcap, shift):
        # the default family at t + shift; with shift = 2 the residue 0 is a
        # good one, so a point whose denominator p divides is read nowhere
        s = Poly.var(1, 0) + shift
        fam = CurveFamily(1, 3 * (1 - s) * s, 2 * (1 - s) ** 2 * s, (), s * (1 - s),
                          frozenset({2, 3}))
        l_values = (3, 5, 7, 11, 13)
        rows, (num, den), surjective = census(fam, [x], l_values, pcap)
        points = _oracle_points(x, fam.bad_locus)
        assert num.tolist() == [t.numerator for t in points]
        assert den.tolist() == [t.denominator for t in points]
        primes = [p for p in primes_below(pcap + 1) if p not in fam.excluded_primes]
        tables = {p: ap_table(fam, p) for p in primes}
        classes = _oracle_classes(points, tables, l_values)
        expected = np.array(
            [[surjectivity_verdict(c[l], l, 1) == "surjective" for l in l_values] for c in classes])
        assert np.array_equal(surjective, expected)
        assert expected[:, 1:].any() and not expected.all()
        # each state is the OR of its classes' bits: a point that left the
        # sweep early already held every bit its LUT can set
        luts = [witness_lut(l) for l in l_values[1:]]
        states = _sweep(num, den, fam, primes, luts)
        for j, (l, lut) in enumerate(zip(l_values[1:], luts)):
            want = [functools.reduce(operator.or_, (int(lut[k]) for k in c[l]), 0) for c in classes]
            assert states[:, j].tolist() == want, l

    def test_blocked_sweep_matches_prime_by_prime_loop(self, monkeypatch):
        # 44 primes, five blocks of 8 and one of 4, at the t + 2 family,
        # whose residue 0 is good: 5 (first block) and 7 (last block) divide
        # some dens, and both have bad residues.  With the l = 13 trace
        # tables, 17 LUTs, the 85 points stay live long enough that at
        # TABLE_MIN_LIVE = 70 four blocks read tables and two read sums
        from sievelab import census as census_mod
        from sievelab.heights import affine_line_points

        s = Poly.var(1, 0) + 2
        fam = CurveFamily(1, 3 * (1 - s) * s, 2 * (1 - s) ** 2 * s, (), s * (1 - s),
                          frozenset({2, 3}))
        num, den = affine_line_points(8, fam.bad_locus)
        primes = [5] + primes_below(200)[4:48] + [7]
        luts = [witness_lut(l) for l in (5, 7, 11, 13)] + [_trace_table(13, tr) for tr in range(13)]
        seen, bad = {}, {}  # each prime's states, and its points at bad residues
        for p in primes:
            table, seen[p] = ap_table(fam, p), np.zeros((len(num), len(luts)), dtype=np.uint8)
            for i, (n, d) in enumerate(zip(num.tolist(), den.tolist())):
                ap = int(table[n * pow(d, -1, p) % p]) if d % p else None
                bad[p] = bad.get(p, 0) + (ap == BAD_SENTINEL)
                if ap is not None and ap != BAD_SENTINEL:
                    for j, lut in enumerate(luts):
                        seen[p][i, j] |= lut[ap % len(lut), p % len(lut)]
        for p in (5, 7):
            assert (den % p == 0).any() and ap_table(fam, p)[0] != BAD_SENTINEL and bad[p] > 0
        monkeypatch.setattr(census_mod, "TABLE_MIN_LIVE", 70)
        tabled = _record_ap_calls(monkeypatch, ("ap_table",))
        summed = _record_ap_calls(monkeypatch, ("ap_sums",))
        want = functools.reduce(operator.or_, seen.values())
        assert np.array_equal(_sweep(num, den, fam, primes, luts), want)
        assert (tabled, summed) == (primes[:32], primes[32:])
        # 5 and 7 alone, from a table and from sums: a point with p | den
        # reads nothing, where all 44 primes could hide a stray bit
        for live_min in (0, len(num)):
            monkeypatch.setattr(census_mod, "TABLE_MIN_LIVE", live_min)
            for p in (5, 7):
                assert np.array_equal(_sweep(num, den, fam, [p], luts), seen[p]), (live_min, p)

    def test_exact_bad_locus_at_x_limit(self):
        # degree 7 with the root -907/953: the homogenised locus reaches
        # about 10^21 at height 1000, beyond int64
        t = Poly.var(1, 0)
        bad = t * (t - 1) * (953 * t + 907) * (t**4 + 3)
        fam = CurveFamily.from_json(json.dumps({**GOOD_FAMILY, "bad_locus": bad.to_terms()}))
        rows, _, _ = census(fam, [1000], [5], 5)
        # brute: the locus at every coprime (n, d) in the box; a nonzero
        # value mod q is nonzero, and each zero mod q is settled in Fractions
        d, n = np.divmod(np.arange(1000 * 2001), 2001)
        d, n = d + 1, n - 1000
        coprime = np.gcd(n, d) == 1
        n, d = n[coprime], d[coprime]
        q = 2**31 - 1
        values = np.zeros_like(n)
        for (e,), c in bad.terms.items():
            term = np.full_like(n, int(c) % q)
            for v, k in ((n % q, e), (d, 7 - e)):
                for _ in range(k):
                    term = term * v % q
            values = (values + term) % q
        roots = [Fraction(a, b) for a, b in zip(n[values == 0].tolist(), d[values == 0].tolist())
                 if bad(Fraction(a, b)) == 0]
        assert sorted(roots) == [Fraction(-907, 953), 0, 1]
        assert rows[0].n_points == len(n) - len(roots)

    def test_l3_only_sweeps_no_lut(self, monkeypatch):
        # with no l >= 5 the sweep has no witness table: every point is
        # undecided with reason 'l3', and no a_p is evaluated
        calls = _record_ap_calls(monkeypatch, ("ap_table", "ap_sums"))
        rows, (num, den), surjective = census(default_elliptic_family(), [10], [3], 100)
        assert calls == []
        (row,) = rows
        assert row.n_points == len(num) > 0 and not surjective.any()
        assert row.surjective == {3: 0} and row.undecided == {3: row.n_points}
        assert row.undecided_any == row.n_points
        assert row.reasons == {3: [0, 0, 0, 0, row.n_points]}

    def test_workers_deterministic(self, tmp_path, monkeypatch):
        # --workers and --seed are validated only; 2 workers must pass the
        # CPU-count check on any machine
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        artifacts = []
        for flags in (["--workers", "1", "--seed", "0"], ["--workers", "2", "--seed", "99"]):
            out = tmp_path / flags[1]
            assert main(["--x", "10", "--lmax", "5", "--pcap", "100", "--out", str(out),
                         *flags, "census"]) == 0
            artifacts.append([(out / name).read_bytes()
                              for name in ("census.csv", "census_reasons.csv")])
        assert artifacts[0] == artifacts[1]


class TestClassSieving:
    def test_empty_support(self):
        fam = default_elliptic_family()
        with pytest.raises(InfeasibleError, match="empty support"):
            sifted_class_set(fam, 20, 5, (0, 1), 1000, 10)

    def test_one_prime_support_matches_direct_filter(self):
        fam = default_elliptic_family()
        rep = sifted_class_set(fam, 20, 5, (2, 1), 1000, 12)
        assert rep.support == (11,)
        # direct per-point oracle
        table = ap_table(fam, 11)
        count = 0
        for t in _oracle_points(20, fam.bad_locus):
            if t.denominator % 11 == 0:
                count += 1
                continue
            ap = int(table[t.numerator * pow(t.denominator, -1, 11) % 11])
            if ap == BAD_SENTINEL or ap % 5 != 2:
                count += 1
        assert rep.count == count

    @pytest.mark.parametrize("l, Q", [(5, 200), (7, 300)])
    def test_multi_prime_support_matches_exhaustive_sieve(self, l, Q):
        # the Omega_{p,C} formulation: every (b, r b) in (Z/p)^2 with b a unit
        # and a good a_p(r) = tr mod l, counted by the exact term of brun.sandwich
        from sievelab.brun import sandwich
        from sievelab.sieve import SieveSupport, SievingSet

        fam = default_elliptic_family()
        points = _oracle_points(20, fam.bad_locus)
        F = lambda t: (t.denominator, t.numerator)
        support = None
        tables = {}
        for tr in range(l):
            rep = sifted_class_set(fam, 20, l, (tr, 1), 1000, Q)
            if support is None:
                support = rep.support
                assert len(support) > 1
                tables = {p: ap_table(fam, p) for p in support}
            assert rep.support == support
            sets = {}
            for p in support:
                omega = {
                    (b, r * b % p)
                    for r in range(p)
                    if tables[p][r] != BAD_SENTINEL and int(tables[p][r]) % l == tr
                    for b in range(1, p)
                }
                sets[p] = SievingSet(p, 2, frozenset(omega))
            expected = sandwich(points, F, sets, SieveSupport(support, Q)).exact
            assert rep.count == expected

    def test_trace_sweep_drops_points_that_saw_every_trace(self, monkeypatch):
        from sievelab import census as census_mod

        live = []  # the points read at each support prime, in sweep order

        class Recorded:  # a table block's inverses of every den, one row per prime
            def __init__(self, inv):
                self.inv = inv

            def __getitem__(self, key):  # (j, the live dens)
                live.append(len(key[1]))
                return self.inv[key]

        def pow_mod(base, e, p, real=census_mod._pow_mod):
            inv = real(base, e, p)
            return Recorded(inv) if np.ndim(base) == 1 else inv

        def sums(family, primes, t, real=census_mod.ap_sums):
            live.extend([len(t)] * len(primes))
            return real(family, primes, t)

        monkeypatch.setattr(census_mod, "_pow_mod", pow_mod)
        monkeypatch.setattr(census_mod, "ap_sums", sums)
        fam = default_elliptic_family()
        rep = sifted_class_set(fam, 60, 5, (0, 1), 1000, 1000)
        # the live set changes only between 8-prime blocks, and it shrinks
        assert 0 < len(live) <= len(rep.support)
        assert all(live[k] == live[k - 1] for k in range(1, len(live)) if k % 8)
        assert any(live[k] < live[k - 1] for k in range(8, len(live), 8))
        # the count of the per-point loop over ap_table
        tables = {p: ap_table(fam, p) for p in rep.support}
        classes = _oracle_classes(_oracle_points(60, fam.bad_locus), tables, (5,))
        assert rep.count == sum((0, 1) not in c[5] for c in classes)

    def test_class_sweep_stops_at_the_class_trace(self, monkeypatch):
        # census-deep's class sieve: a point leaves the sweep once it shows
        # tr0 = 3, so it reads fewer tables than its 28 support primes
        calls = _record_ap_calls(monkeypatch, ("ap_table",))
        rep = sifted_class_set(default_elliptic_family(), 20, 7, (3, 1), 1000, 1000)
        assert len(calls) < len(rep.support) == 28

    @pytest.mark.parametrize("x, l, tr0, Q", [(20, 7, 3, 1000), (30, 7, 6, 500), (60, 5, 0, 1000),
                                              (20, 11, 4, 1000)])
    def test_class_count_matches_all_trace_sweep(self, x, l, tr0, Q):
        from sievelab.heights import affine_line_points

        fam = default_elliptic_family()
        rep = sifted_class_set(fam, x, l, (tr0, 1), 1000, Q)
        num, den = affine_line_points(x, fam.bad_locus)
        seen = _sweep(num, den, fam, rep.support, [_trace_table(l, tr) for tr in range(l)])
        assert rep.count == np.count_nonzero(seen[:, tr0] == 0)

    def test_class_sieve_counts_every_trace_past_l_limit(self, monkeypatch):
        # l = 17 and 19 have traces past 15: each class count, and at l = 17
        # each per-trace column, against the per-point loop over ap_table
        from sievelab import config
        from sievelab.heights import affine_line_points

        monkeypatch.setattr(config, "L_LIMIT", 23)
        fam = default_elliptic_family()
        points = _oracle_points(30, fam.bad_locus)
        expected = {(17, 15): 625, (17, 16): 608, (19, 16): 733, (19, 17): 760, (19, 18): 774}
        for (l, tr0), want in expected.items():
            rep = sifted_class_set(fam, 30, l, (tr0, 1), 1000, 1000)
            tables = {p: ap_table(fam, p) for p in rep.support}
            traces = [{tr for tr, _ in c[l]} for c in _oracle_classes(points, tables, (l,))]
            assert rep.count == sum(tr0 not in t for t in traces) == want, (l, tr0)
            if l == 17:
                num, den = affine_line_points(30, fam.bad_locus)
                seen = _sweep(num, den, fam, rep.support, [_trace_table(l, tr) for tr in range(l)])
                assert [set(np.flatnonzero(row).tolist()) for row in seen] == traces

    def test_containment_cross_check(self):
        fam = default_elliptic_family()
        n_undecided, failures = exceptional_containment_check(fam, 20, 5, 1000, 200)
        assert n_undecided > 0
        assert failures == []

    def test_containment_check_builds_each_table_once(self, monkeypatch):
        calls = _record_ap_calls(monkeypatch, ("ap_table",))
        exceptional_containment_check(default_elliptic_family(), 20, 5, 1000, 200)
        # all 509 points are live at the first 16 census primes (5 to 61)
        # and at most 28 after, so the rest of the sweep and the support
        # sweep sum characters in place of tables
        assert len(calls) == len(set(calls)) == 16
        assert calls == primes_below(62)[2:]

    @pytest.mark.parametrize("l", [5, 7, 11, 13])
    def test_bound_matches_group_density(self, l):
        # the closed-form inverse density against the GL2(F_l) class table
        # on the det = 1 coset
        from group_oracle import GroupSpec, class_table

        fam = default_elliptic_family()
        x = 20
        counts = {tr: c for (tr, det), c in
                  class_table(GroupSpec(1, l, "gsp"), "charpoly").entries.items() if det == 1}
        dens = {tr: Fraction(c, sum(counts.values())) for tr, c in counts.items()}
        assert sorted(dens) == list(range(l))
        for tr0 in range(l):
            rep = sifted_class_set(fam, x, l, (tr0, 1), 1000, 60)
            assert rep.bound == float(1 / dens[tr0]) * l * math.log(x) / math.sqrt(x) * x**2


class TestCli:
    def test_census_command(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--x", "10", "--pcap", "50", "--out", out, "census"]) == 0
        with open(os.path.join(out, "census.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "x" and rows[1][0] == "10"

    def test_census_reasons_sidecar(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--x", "20,40", "--lmax", "13", "--pcap", "200", "--out", out, "census"]) == 0
        with open(os.path.join(out, "census.csv")) as fh:
            census_rows = {r["x"]: r for r in csv.DictReader(fh)}
        with open(os.path.join(out, "census_reasons.csv")) as fh:
            reasons = list(csv.DictReader(fh))
        assert [(r["x"], r["l"]) for r in reasons] == [
            (x, l) for x in ("20", "40") for l in ("3", "5", "7", "11", "13")]
        kinds = ("det", "split", "nonsplit", "excluder", "l3")
        for r in reasons:
            assert r["undecided"] == census_rows[r["x"]][f"undecided_l{r['l']}"]
            assert sum(int(r[k]) for k in kinds) == int(r["undecided"])
            assert (int(r["l3"]) == int(r["undecided"])) if r["l"] == "3" else r["l3"] == "0"
        assert any(int(r["undecided"]) for r in reasons if r["l"] != "3")

    def test_census_lmax_3(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--x", "20", "--lmax", "3", "--pcap", "200", "--out", out, "census"]) == 0
        with open(os.path.join(out, "census.csv")) as fh:
            (row,) = list(csv.DictReader(fh))
        with open(os.path.join(out, "census_reasons.csv")) as fh:
            (reasons,) = list(csv.DictReader(fh))
        assert row["surjective_l3"] == "0" and int(row["n_points"]) > 0
        assert row["undecided_l3"] == row["undecided_any"] == row["n_points"]
        assert (reasons["x"], reasons["l"], reasons["undecided"]) == ("20", "3", row["n_points"])
        assert [reasons[k] for k in ("det", "split", "nonsplit", "excluder", "l3")] == [
            "0", "0", "0", "0", row["n_points"]]

    def test_goodred_and_report_idempotent(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--x", "10", "--pcap", "50", "--out", out, "census"]) == 0
        assert main(["--x", "100", "--out", out, "goodred"]) == 0
        assert main(["--out", out, "report"]) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            first = fh.read()
        assert main(["--out", out, "report"]) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            assert fh.read() == first
        doc = json.loads(first)
        assert set(doc) == {"census.csv", "goodred.csv"}

    def test_report_missing_inputs_exit_2(self, tmp_path):
        assert main(["--out", str(tmp_path / "empty"), "report"]) == 2

    def test_infeasible_exit_3(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--x", "10", "--pcap", "99999", "--out", out, "census"]) == 3

    def test_bad_config_exit_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "census"]) == 2

    def test_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": [10], "l": [5], "pcap": 50}))
        out = str(tmp_path / "out")
        assert main(["--config", str(cfg), "--out", out, "census"]) == 0

    def test_family_file_matches_inline_document(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text(json.dumps(GOOD_FAMILY))
        written = []
        for key, value in (("file", str(family)), ("inline", GOOD_FAMILY)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({"family": value, "x": [10], "l": [5], "pcap": 50}))
            out = tmp_path / key
            assert main(["--config", str(cfg), "--out", str(out), "census"]) == 0
            written.append((out / "census.csv").read_bytes())
        assert written[0] == written[1]

    def test_missing_family_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": missing}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "census"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: family file not found: {missing}\n"

    def test_directory_config_exit_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "census"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: config file not found: {tmp_path}\n"

    def test_directory_family_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": str(tmp_path)}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "census"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: family file not found: {tmp_path}\n"

    def test_report_directory_input_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "census.csv").mkdir(parents=True)
        assert main(["--out", str(out), "report"]) == 2
        stdout, err = capsys.readouterr()
        path = out / "census.csv"
        assert stdout == "" and err == f"config error: missing input: {path}\n"
        assert sorted(os.listdir(out)) == ["census.csv"]

    @pytest.mark.parametrize(
        "argv, config, code",
        [
            (["sifted-class-set", "--l", "5", "--class", "0,2", "--Q", "200"], None, 2),
            (["sifted-class-set", "--l", "2", "--class", "0,1", "--Q", "200"], None, 2),
            (["sifted-class-set", "--l", "9", "--class", "0,1", "--Q", "200"], None, 2),
            (["sifted-class-set", "--l", "17", "--class", "0,1", "--Q", "200"], None, 3),
            (["census"], {"l": [9]}, 2),
            (["--pcap", "0", "census"], None, 2),
            (["--pcap", "-5", "census"], None, 2),
            (["--workers", "0", "census"], None, 2),
            (["census"], {"family": "default-g2"}, 2),
            (["sifted-class-set", "--l", "5", "--class", "0,1", "--Q", "200"],
             {"family": "default-g2"}, 2),
            (["census"], {"cache": "results.jsonl"}, 2),
            (["census"], {"x": [10], "colour": "blue"}, 2),
            (["census"], [10], 2),
            (["census"], {"l": 5}, 2),
            (["census"], {"family": {"genus": 1}}, 2),
            (["--lmax", "100", "census"], None, 3),
            (["--out", "", "census"], None, 2),
            (["--out", "{tmp}/file", "census"], None, 2),
            (["--x", "10,1001", "census"], None, 3),
            (["--x", "1001", "sifted-class-set", "--l", "5", "--class", "0,1", "--Q", "200"],
             None, 3),
        ] + [
            ([command], {"family": {**GOOD_FAMILY, **bad}}, 2)
            for command in ("census", "goodred")
            for bad in (
                {"A": [[1, 0, 0]]},  # two exponents for r = 1
                {"bad_locus": [[1, -1]]},  # negative exponent
                {"A": [[1.5, 1]]},  # non-integer coefficient
                {"bad_locus": [[0, 1]]},  # zero bad locus
            )
        ] + [
            (["goodred"], {"family": {**GOOD_G2, "quintic": quintic}}, 2)
            for quintic in (
                GOOD_G2["quintic"][:5],  # five coefficients
                GOOD_G2["quintic"][:5] + [[[2, 0, 0, 0]]],  # leading coefficient 2
                GOOD_G2["quintic"][:5] + [[[1, 1, 0, 0]]],  # leading coefficient t1
            )
        ] + [
            (["census"], {"l": [5, 5]}, 2),
            (["--x", "16", "goodred"], {"family": "default-g2"}, 3),
            # polynomial degrees above config.MAX_DEGREE: a hang in eval_mod's
            # power list, an OverflowError and a ZeroDivisionError in the floor
            (["census"], {"family": {**GOOD_FAMILY, "A": [[1, 100000000]]}}, 2),
            (["--x", "100", "goodred"],
             {"family": {**GOOD_FAMILY, "bad_locus": [[1, 1500], [1, 0]]}}, 2),
            (["--x", "5", "goodred"],
             {"family": {**GOOD_FAMILY, "bad_locus": [[1, 3000], [1, 0]]}}, 2),
        ] + [
            # a non-integer genus; JSON true and 1.0 both compare equal to 1
            ([command], {"family": {**GOOD_FAMILY, "genus": genus}}, 2)
            for genus in (True, 1.0)
            for command in ("census", "goodred")
        ] + [
            (["--lmax", "40", "census"], None, 3),
            (["--x", "20,a", "census"], None, 2),
            # the prefix's --pcap overrides a config pcap, so a float seed
            # reaches ExperimentConfig.validate's integer check
            (["census"], {"seed": 2.5}, 2),
        ],
    )
    def test_bad_input_one_line_exit(self, tmp_path, capsys, argv, config, code):
        (tmp_path / "file").write_text("")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        # a flag in argv overrides the same flag in the prefix
        prefix = ["--x", "10", "--pcap", "50", "--out", str(tmp_path / "out")]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            prefix += ["--config", str(cfg)]
        assert main(prefix + argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("terms", [{"A": [[1, 1], [2, 1]]}, {"bad_locus": [[1, 1], [-1, 1]]}])
    def test_repeated_monomial_rejected(self, tmp_path, capsys, terms):
        # t + 2t would read as 2t, and t - t as -t, past the nonzero bad locus check
        (key,) = terms
        doc = {**GOOD_FAMILY, **terms}
        with pytest.raises(ValueError, match=f"^{key}: an exponent tuple is repeated$"):
            CurveFamily.from_json(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": doc}))
        assert main(["--config", str(cfg), "--x", "5", "--out", str(tmp_path / "out"), "goodred"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: bad family document: ")
        assert f"{key}: an exponent tuple is repeated" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via_family, prefix", [(False, "config error: bad config JSON: "),
                                                    (True, "config error: bad family document: ")])
    def test_deeply_nested_document_exits_2(self, tmp_path, capsys, via_family, prefix):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        config = deep
        if via_family:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"family": str(deep)}))
        assert main(["--config", str(config), "--x", "5", "--out", str(tmp_path / "out"), "goodred"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(prefix) and "recursion" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text", ["[]", "1", "null", '{"genus": 1}', DEEP_JSON],
                             ids=["list", "number", "null", "no-keys", "deep"])
    def test_malformed_family_document_raises_value_error(self, tmp_path, capsys, text):
        with pytest.raises(ValueError):
            CurveFamily.from_json(text)
        family = tmp_path / "family.json"
        family.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": str(family)}))
        assert main(["--config", str(cfg), "--x", "5", "--out", str(tmp_path / "out"), "goodred"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: bad family document: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["census", "goodred"])
    @pytest.mark.parametrize("excluded", [[-5, 0, 1], [4], [2, 9], [10007]])
    def test_excluded_primes_must_be_primes(self, tmp_path, capsys, command, excluded):
        # inline and as a file; 10007 is a prime past every sieve (PCAP_LIMIT)
        doc = {**GOOD_FAMILY, "excluded_primes": excluded}
        family = tmp_path / "family.json"
        family.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        for value in (doc, str(family)):
            cfg.write_text(json.dumps({"family": value}))
            argv = ["--config", str(cfg), "--x", "5", "--pcap", "50", "--out", str(tmp_path / "out")]
            assert main(argv + [command]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("config error: bad family document: ")
            assert "excluded_primes" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_workers_above_cpu_count_exit_3(self, tmp_path, capsys, monkeypatch):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        workers = str((os.cpu_count() or 1) + 1)
        argv = ["--x", "10", "--pcap", "50", "--workers", workers, "--out", str(tmp_path), "census"]
        assert main(argv) == 3
        _, err = capsys.readouterr()
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_goodred_genus2_counts_every_point(self, tmp_path):
        # for x <= 15 the default genus-2 support is empty, so the count is |B(x)|
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "default-g2"}))
        out = str(tmp_path / "out")
        assert main(["--x", "1,5,15", "--out", out, "--config", str(cfg), "goodred"]) == 0
        with open(os.path.join(out, "goodred.csv")) as fh:
            counts = [int(row["count"]) for row in csv.DictReader(fh)]
        assert counts == [40, 6928, 427968] == [count_projective(3, x) for x in (1, 5, 15)]

    def test_sifted_class_set_command(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(
            ["--x", "20", "--pcap", "1000", "--out", out,
             "sifted-class-set", "--l", "5", "--class", "0,1", "--Q", "200"]
        )
        assert rc == 0
        with open(os.path.join(out, "class_set_l5_tr0.json")) as fh:
            doc = json.load(fh)
        assert doc["support"][0] == 11 and doc["count"] >= 0

    def test_sifted_class_set_reduces_class_mod_l(self, tmp_path):
        # TR,DET name the class mod l: 9,1 is the class 4,1 at l = 5
        written = []
        for key in ("9,1", "4,1"):
            out = str(tmp_path / key)
            assert main(["--x", "20", "--out", out,
                         "sifted-class-set", "--l", "5", "--class", key, "--Q", "20"]) == 0
            written.append(os.listdir(out))
            with open(os.path.join(out, "class_set_l5_tr4.json"), "rb") as fh:
                written.append(fh.read())
        assert written[0] == written[2] == ["class_set_l5_tr4.json"]
        assert written[1] == written[3]
        assert json.loads(written[1])["class"] == [4, 1]

    def test_artifacts_stay_byte_identical(self, tmp_path):
        # CRC-32 of the benchmark's finite-field results, its x = 300
        # sandwich, L(Q) and point list, the census's x = 1000 points, an
        # L(Q) where most products pass Q, the Brun weights over the primes
        # below 30, and the census-wide and brun-sandwich artifacts; a
        # refactor that changes a byte must say why
        from sievelab import brun, heights, sieve
        from sievelab.chebotarev import chebotarev_report, genus2_census

        reports = chebotarev_report(default_elliptic_family(), 7, 3, [1, 2, 3])
        # the sandwich as perfbench/ops.py runs it at x = 300
        family = default_elliptic_family()
        f = family.bad_locus.homogenize()
        primes = tuple(p for p in primes_below(17) if p not in family.excluded_primes)
        sets = {p: sieve.SievingSet.from_predicate(p, 2, lambda v, p=p: f.eval_mod(v, p) == 0)
                for p in primes}
        points = heights.enumerate_projective(1, 300)
        num, den = heights.affine_line_points(1000, family.bad_locus)  # the census at X_LIMIT
        sandwiches = [brun.sandwich(points, operator.attrgetter("coords"), sets,
                                    sieve.SieveSupport(primes, 17), b=b) for b in (1, 2, 3, None)]
        L = sieve.large_sieve_L(sieve.SieveSupport(primes, 17),
                                {p: sieve.local_density(s) for p, s in sets.items()})
        L_2000 = sieve.large_sieve_L(sieve.SieveSupport(primes_below(2000), 2000),
                                     {p: Fraction(1, p) for p in primes_below(2000)})
        crcs = {
            "chebotarev": zlib.crc32("\n".join(c.to_json() for c in reports).encode()),
            "genus2": zlib.crc32(genus2_census(default_genus2_family(), 11, 5).to_json().encode()),
            "sandwich": zlib.crc32("\n".join(r.to_json() for r in sandwiches).encode()),
            "enumerate_projective": zlib.crc32(repr([p.coords for p in points]).encode()),
            "affine_line_points": zlib.crc32(num.astype("<i8").tobytes()
                                             + den.astype("<i8").tobytes()),
            "L_of_Q": zlib.crc32(f"{L.numerator}/{L.denominator}".encode()),
            "L_2000": zlib.crc32(f"{L_2000.numerator}/{L_2000.denominator}".encode()),
            "brun_coefficients": zlib.crc32(repr([
                sorted(brun.brun_coefficients(primes_below(30), b, sign).items())
                for b in (1, 2, 3, None) for sign in ("upper", "lower")]).encode()),
        }
        out = str(tmp_path / "out")
        common = ["--x", "20,40,60", "--lmax", "13", "--pcap", "200", "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(common + ["census"]) == 0
            assert main(common + ["sifted-class-set", "--l", "5", "--class", "0,1", "--Q", "200"]) == 0
            assert main(["--x", "300,2000", "--out", out, "goodred"]) == 0
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                crcs[name] = zlib.crc32(fh.read())
        assert crcs == {
            "chebotarev": 1866568472,
            "genus2": 55425910,
            "sandwich": 3297640705,
            "enumerate_projective": 3337347054,
            "affine_line_points": 3145404169,
            "L_of_Q": 2095561731,
            "L_2000": 367957266,
            "brun_coefficients": 4232814490,
            "census.csv": 1849435720,
            "census_reasons.csv": 2051400799,
            "class_set_l5_tr0.json": 3974932368,
            "goodred.csv": 1635435571,
        }

    def test_import_leaves_out_libcrypto(self):
        # hashlib maps OpenSSL's libcrypto (about 3.5 MiB of RSS) into
        # every process that imports it; numpy costs every command its
        # load time.  This is the set-up each benchmark operation pays.
        out = _fresh_interpreter(
            "import sievelab.cli\n"
            "from sievelab.curves import default_elliptic_family, default_genus2_family\n"
            "default_elliptic_family(), default_genus2_family()\n",
            ["_hashlib", "hashlib", "numpy", *RECORD_MODULES],
        )
        assert out == ["[]"]

    def test_setup_leaves_out_json_csv_and_fractions(self):
        # the set-up code of perfbench/run.py: no step of it reads or writes a
        # document or forms a Fraction
        out = _fresh_interpreter(
            "import sievelab.cli\n"
            "from sievelab.curves import default_elliptic_family, default_genus2_family\n"
            "default_elliptic_family(), default_genus2_family()\n",
            ["csv", "decimal", "fractions", "json", "numbers"],
        )
        assert out == ["[]"]

    @pytest.mark.parametrize("argv", [["--x", "5", "goodred"],
                                      ["--x", "5", "--lmax", "7", "--pcap", "50", "census"]])
    def test_goodred_and_census_leave_out_json_and_fractions(self, tmp_path, argv):
        out = _fresh_interpreter(
            "from sievelab.cli import main\n"
            f"print(main({['--out', str(tmp_path), *argv]!r}))\n",
            ["decimal", "fractions", "json"],
        )
        assert out[-2:] == ["0", "[]"]

    def test_report_leaves_out_fractions(self, tmp_path):
        out = str(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--x", "5", "--lmax", "5", "--pcap", "50", "--out", out, "census"]) == 0
            assert main(["--x", "5", "--out", out, "goodred"]) == 0
        lines = _fresh_interpreter(
            f"from sievelab.cli import main\nprint(main(['--out', {out!r}, 'report']))\n",
            ["decimal", "fractions"],
        )
        assert lines == [os.path.join(out, "report.json"), "0", "[]"]

    def test_ffield_censuses_leave_out_numpy(self):
        # the imports of perfbench/ops.py and its two finite-field experiments
        out = _fresh_interpreter(
            "from sievelab import brun, chebotarev, heights, sieve\n"
            "from sievelab.curves import default_elliptic_family, default_genus2_family\n"
            "chebotarev.chebotarev_report(default_elliptic_family(), 7, 3, [1, 2, 3])\n"
            "chebotarev.genus2_census(default_genus2_family(), 11, 5)\n",
            ["numpy", *RECORD_MODULES],
        )
        assert out == ["[]"]

    def test_sandwich_leaves_out_numpy(self):
        # the imports of perfbench/ops.py, its sandwich experiment, the
        # point enumeration in the dimensions that its tests cover, and the
        # other readers of the squarefree walk: the closed-form point count
        # and an L(Q) where most products pass Q
        perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
        out = _fresh_interpreter(
            f"sys.path.insert(0, {perfbench!r})\n"
            "from ops import heights, run_sandwich, sieve\n"
            "run_sandwich(60, [1, 2, 3])\n"
            "for r in (1, 2, 3):\n    heights.enumerate_projective(r, 5)\n"
            "heights.count_projective(3, 15)\n"
            "from fractions import Fraction\n"
            "from sievelab.config import primes_below\n"
            "ps = primes_below(2000)\n"
            "sieve.large_sieve_L(sieve.SieveSupport(ps, 2000), {p: Fraction(1, p) for p in ps})\n",
            ["numpy", *RECORD_MODULES],
        )
        assert out == ["[]"]

    def test_genus2_census_at_l3_loads_groups(self):
        # the GSp4(F_l) predictions come from the closed form, with no numpy
        out = _fresh_interpreter(
            "from sievelab.chebotarev import genus2_census\n"
            "from sievelab.curves import default_genus2_family\n"
            "print(genus2_census(default_genus2_family(), 5, 3).predicted is not None)\n"
            "print_modules()\n"
            "print(genus2_census(default_genus2_family(), 7, 5).predicted is not None)\n",
            ["numpy", "sievelab.groups"],
        )
        assert out == ["True", "['sievelab.groups']", "True", "['sievelab.groups']"]

    def test_report_and_config_errors_leave_out_numpy(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--x", "5", "--lmax", "5", "--pcap", "50", "--out", out, "census"]) == 0
        assert main(["--x", "5", "--out", out, "goodred"]) == 0
        g2 = tmp_path / "g2.json"
        g2.write_text(json.dumps({"family": "default-g2"}))
        runs = [
            (["--out", out, "report"], 0),
            (["--out", str(tmp_path / "empty"), "report"], 2),
            (["--pcap", "0", "census"], 2),
            (["--pcap", "100000", "census"], 3),
            (["--x", "a", "goodred"], 2),
            (["--lmax", "2", "census"], 2),
            (["--config", str(tmp_path / "missing.json"), "census"], 2),
            (["--config", str(g2), "census"], 2),
            (["--x", "2000", "census"], 3),
            (["sifted-class-set", "--l", "9", "--class", "0,1", "--Q", "50"], 2),
            (["sifted-class-set", "--l", "5", "--class", "a,b", "--Q", "50"], 2),
        ]
        code = "from sievelab.cli import main\n" + "".join(
            f"print(main({argv!r}), end=' ')\nprint_modules()\n" for argv, _ in runs
        )
        lines = _fresh_interpreter(code, ["numpy", *RECORD_MODULES])
        lines = [line for line in lines if not line.startswith(out)]  # written paths
        assert lines == [f"{rc} []" for _, rc in runs] + ["[]"]

    def test_goodred_leaves_out_census_and_curves(self, tmp_path):
        out = _fresh_interpreter(
            "from sievelab.cli import main\n"
            f"main(['--x', '5', '--out', {str(tmp_path)!r}, 'goodred'])\n",
            ["sievelab.census", "sievelab.curves", "sievelab.heights"],
        )
        assert out[-1] == "[]"

    def test_goodred_leaves_out_sieve(self, tmp_path):
        out = _fresh_interpreter(
            "from sievelab.cli import main\n"
            f"main(['--x', '5', '--out', {str(tmp_path)!r}, 'goodred'])\n",
            ["sievelab.brun", "sievelab.sieve"],
        )
        assert out[-1] == "['sievelab.brun']"

    @pytest.mark.parametrize("family, x", [("default-g1", 5), ("default-g1", 2000),
                                           ("default-g2", 15)])
    def test_goodred_leaves_out_numpy(self, tmp_path, family, x):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": family}))
        out = _fresh_interpreter(
            "from sievelab.cli import main\n"
            f"main(['--config', {str(config)!r}, '--x', '{x}', '--out', {str(tmp_path)!r}, "
            "'goodred'])\n",
            ["numpy", *RECORD_MODULES],
        )
        assert out[-1] == "[]"

    def test_brun_import_leaves_out_numpy(self):
        assert _fresh_interpreter("import sievelab.brun\n", ["numpy"]) == ["[]"]

    def test_chebotarev_import_leaves_out_groups(self):
        assert _fresh_interpreter("import sievelab.chebotarev\n", ["sievelab.groups"]) == ["[]"]

    def test_census_and_class_set_load_only_the_g1_layer(self, tmp_path):
        out = str(tmp_path)
        lines = _fresh_interpreter(
            "import sievelab.curves\n"
            "print_modules()\n"
            "from sievelab.cli import main\n"
            f"print(main(['--x', '5', '--lmax', '7', '--pcap', '50', '--out', {out!r}, 'census']))\n"
            f"print(main(['--x', '5', '--pcap', '50', '--out', {out!r}, 'sifted-class-set', "
            "'--l', '5', '--class', '1,1', '--Q', '50']))\n",
            ["sievelab.brun", "sievelab.groups", "sievelab.finitefield", "sievelab.sieve",
             *RECORD_MODULES],
        )
        lines = [line for line in lines if not line.startswith(out)]  # written paths
        # numpy itself loads inspect, once the census imports it
        assert lines == ["[]", "0", "0", "['inspect']"]

    def test_sources_parse_at_the_python_floor(self):
        # syntax newer than requires-python fails here, with no second interpreter
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
            minor = int(re.search(r'requires-python = ">=3\.(\d+)"', fh.read()).group(1))
        package = os.path.join(SRC, "sievelab")
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as fh:
                    ast.parse(fh.read(), filename=name, feature_version=(3, minor))

    def test_only_cli_opens_files(self):
        # every artifact goes through the CLI's one writer
        package = os.path.join(SRC, "sievelab")
        offenders = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py") or name == "cli.py":
                continue
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    f = node.func
                    called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if called in ("open", "makedirs", "mkdir"):
                        offenders.append(f"{name}:{node.lineno} {called}")
        assert offenders == []

    def test_lmax_primes_match_the_sieve(self, monkeypatch):
        # the --lmax list against the sieve's primes, and pinned at 13
        monkeypatch.setattr(ExperimentConfig, "validate", lambda self: self)
        parser = build_parser()
        for lmax in range(2, 2 * L_LIMIT + 1):
            cfg = load_config(parser.parse_args(["--lmax", str(lmax), "census"]))
            assert list(cfg.l_values) == [l for l in primes_below(lmax + 1) if l >= 3]
        cfg = load_config(parser.parse_args(["--lmax", "13", "census"]))
        assert cfg.l_values == (3, 5, 7, 11, 13)

    def test_check_l_matches_the_sieve(self):
        for l in range(2, 31):
            if l < 3:
                expected = ConfigError
            elif l > L_LIMIT:
                expected = InfeasibleError
            else:
                expected = None if l in primes_below(L_LIMIT + 1) else ConfigError
            try:
                _check_l(l)
                raised = None
            except (ConfigError, InfeasibleError) as e:
                raised = type(e)
            assert raised is expected, l


def _env():
    """The environment with the sources first on the path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _entry(argv, tmp_path):
    """``python -m sievelab.cli`` with argv in a fresh process: the process
    entry that the console script goes through too."""
    return subprocess.run([sys.executable, "-m", "sievelab.cli", *argv], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)


class TestProcessEntry:
    def test_census_prints_the_path_and_matches_main(self, tmp_path):
        common = ["--x", "10,20", "--lmax", "7", "--pcap", "50", "--out"]
        proc = _entry(common + ["entry", "census"], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, os.path.join("entry", "census.csv") + "\n", "")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(common + [str(tmp_path / "main"), "census"]) == 0
        for name in ("census.csv", "census_reasons.csv"):
            assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()

    @pytest.mark.parametrize("argv, code, prefix", [
        (["--pcap", "0", "census"], 2, "config error: "),
        (["--x", "10", "--pcap", "100000", "census"], 3, "infeasible: "),
    ])
    def test_errors_exit_with_one_line(self, tmp_path, argv, code, prefix):
        proc = _entry(argv, tmp_path)
        assert (proc.returncode, proc.stdout) == (code, "")
        (line,) = proc.stderr.splitlines()
        assert line.startswith(prefix) and "Traceback" not in proc.stderr

    def test_in_process_callers_keep_the_collector(self, tmp_path):
        # only the process entry pauses and freezes the collector: importing
        # any module or calling main leaves it as it was
        out = _fresh_interpreter(
            "import gc, importlib, pkgutil, sievelab\n"
            "for m in pkgutil.iter_modules(sievelab.__path__):\n"
            "    importlib.import_module('sievelab.' + m.name)\n"
            "from sievelab.cli import main\n"
            f"main(['--x', '10', '--pcap', '50', '--out', {str(tmp_path)!r}, 'census'])\n"
            "main(['--pcap', '0', 'census'])\n"
            "print(gc.isenabled(), gc.get_freeze_count())\n",
            [],
        )
        assert out[-2:] == ["True 0", "[]"]

    def test_entry_pauses_and_freezes_the_collector(self, tmp_path):
        # as interpreter teardown begins, after the command's exit
        out = _fresh_interpreter(
            "import atexit, gc\n"
            "from sievelab.cli import run\n"
            "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
            f"sys.argv[1:] = ['--x', '10', '--out', {str(tmp_path)!r}, 'goodred']\n"
            "try:\n    run()\nexcept SystemExit as e:\n    print(e.code)\n",
            [],
        )
        assert out == [os.path.join(str(tmp_path), "goodred.csv"), "0", "[]", "False True"]

    def test_console_script_is_the_main_block_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(SRC)
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            script = tomllib.load(fh)["project"]["scripts"]["sievelab"]
        with open(os.path.join(SRC, "sievelab", "cli.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        (block,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
        called = [node.func.id for node in ast.walk(block)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        assert [f"sievelab.cli:{name}" for name in called] == [script]


def _fresh_interpreter(code, modules):
    """The stdout lines of ``code`` run in a fresh interpreter with the
    sources on the path; ``print_modules()`` there prints which of
    ``modules`` are loaded, and runs once more at the end."""
    code = (
        "import sys\n"
        f"def print_modules():\n    print(sorted(m for m in {modules!r} if m in sys.modules))\n"
        f"{code}print_modules()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


FLAG_VALUES = {
    "--x": ["10", "5,20", "20,5", "", "a", "0", "-3"],
    "--lmax": ["3", "5", "13", "2", "100", "x"],
    "--pcap": ["50", "0", "-5", "100000", "q"],
    "--out": ["out", "", "file"],
    "--workers": ["1", "0", "-2", "w"],
    "--seed": ["0", "7", "-1", "z"],
    "--config": ["cfg.json", "missing.json", "."],
}
CLASS_SET_VALUES = {
    "--l": ["5", "7", "3", "2", "9", "17", "x"],
    "--class": ["0,1", "1,1", "3,1", "0,2", "1", "a,b", ""],
    "--Q": ["200", "50", "2", "0", "-5", "x"],
}
CONFIG_VALUES = {
    "family": ["default-g1", "default-g2", "missing.json", GOOD_FAMILY, GOOD_G2,
               {"genus": 3}, {**GOOD_G2, "quintic": [[[1, 0, 0, 0]]]}, 7, [1]],
    "x": [[10], [5, 20], [20, 5], [], [0], ["a"], 10],
    "l": [[5], [3, 5], [9], [2], [17], 5, [], [5.0]],
    "pcap": [50, 0, -1, 10**5, "50", 2.5, True],
    "out": ["out", "", 5, "file"],
    "workers": [1, 0, "1"],
    "seed": [0, 3, -1, "s"],
    "colour": ["blue"],
}


def _pairs(values):
    """Some of the options in values, each with one of its values."""
    return st.lists(
        st.sampled_from(sorted(values)).flatmap(
            lambda k: st.tuples(st.just(k), st.sampled_from(values[k]))),
        max_size=3)


class TestFrontDoorFuzz:
    """Every argv and config built from the real flags, commands and keys
    exits 0, 2 or 3, never with a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(
        flags=_pairs(FLAG_VALUES),
        command=st.sampled_from(["census", "goodred", "report", "sifted-class-set", "bogus"]),
        class_set=st.fixed_dictionaries({k: st.sampled_from(v) for k, v in CLASS_SET_VALUES.items()}),
        config=st.one_of(
            st.none(),
            st.dictionaries(st.sampled_from(sorted(CONFIG_VALUES)), st.none(), max_size=4).flatmap(
                lambda d: st.fixed_dictionaries({k: st.sampled_from(CONFIG_VALUES[k]) for k in d})),
            st.sampled_from([[10], "x", 5, "{not json", DEEP_JSON]),
        ),
    )
    def test_exit_code_without_traceback(self, flags, command, class_set, config):
        argv = [a for pair in flags for a in pair] + [command]
        if command == "sifted-class-set":
            argv += [a for pair in class_set.items() for a in pair]
        # small sizes keep each example fast: the default pcap is 1000
        if "--pcap" not in argv and not (isinstance(config, dict) and "pcap" in config):
            argv = ["--pcap", "50"] + argv
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                open("file", "w").close()
                if config is not None:
                    with open("cfg.json", "w", encoding="utf-8") as fh:
                        fh.write(config if config in ("{not json", DEEP_JSON)
                                 else json.dumps(config))
                    if "--config" not in argv:
                        argv = ["--config", "cfg.json"] + argv
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                        usage_error = False
                    except SystemExit as e:  # argparse rejects the argv
                        code, usage_error = e.code, True
            finally:
                os.chdir(cwd)
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code and not usage_error:
            assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
