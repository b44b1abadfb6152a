import csv
import json
import os

import numpy as np
import pytest

from sievelab.census import (
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    census,
    exceptional_containment_check,
    frobenius_tables,
    sifted_class_set,
)
from sievelab.cli import main
from sievelab.curves import default_elliptic_family

GOOD_FAMILY = json.loads(default_elliptic_family().to_json())


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
        rows, verdicts = census(fam, [10, 20], [5], 200)
        # verdicts at the small window equal the restriction of the large one
        rows_small, verdicts_small = census(fam, [10], [5], 200)
        for t, v in verdicts_small.items():
            assert verdicts[t][5] == v[5]
        assert rows[0].n_points == rows_small[0].n_points
        assert rows[0].undecided_any == rows_small[0].undecided_any

    def test_b_count_matches_heights(self):
        from sievelab.heights import enumerate_affine

        fam = default_elliptic_family()
        rows, _ = census(fam, [15], [5], 100)
        expected = len(enumerate_affine(1, 15, bad_locus=fam.bad_locus))
        assert rows[0].n_points == expected

    def test_workers_deterministic(self):
        fam = default_elliptic_family()
        rows1, _ = census(fam, [10], [5], 100, workers=1, seed=0)
        rows2, _ = census(fam, [10], [5], 100, workers=2, seed=99)
        assert rows1[0].csv_row([5]) == rows2[0].csv_row([5])
        tables1 = frobenius_tables(fam, 100, workers=1, seed=0)
        tables2 = frobenius_tables(fam, 100, workers=2, seed=99)
        assert list(tables1) == list(tables2)
        for p, table in tables1.items():
            assert table.dtype == tables2[p].dtype == np.int64
            assert np.array_equal(table, tables2[p])


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
        from sievelab.curves import ap_table, BAD_SENTINEL
        from sievelab.heights import enumerate_affine

        table = ap_table(fam, 11)
        count = 0
        for pt in enumerate_affine(1, 20, bad_locus=fam.bad_locus):
            t = pt.coords[0]
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
        # and a good a_p(r) = tr mod l, sifted through sieve.sifted_set
        from sievelab.curves import ap_table, BAD_SENTINEL
        from sievelab.heights import enumerate_affine
        from sievelab.sieve import SieveSupport, SievingSet, sifted_set

        fam = default_elliptic_family()
        points = enumerate_affine(1, 20, bad_locus=fam.bad_locus)
        F = lambda pt: (pt.coords[0].denominator, pt.coords[0].numerator)
        support = None
        tables = {}
        for tr in range(l):
            rep = sifted_class_set(fam, 20, l, (tr, 1), 1000, Q)
            if support is None:
                support = rep.support
                assert len(support) > 1
                tables = {p: ap_table(fam, p) for p in support}
            assert rep.support == support
            sets = []
            for p in support:
                omega = {
                    (b, r * b % p)
                    for r in range(p)
                    if tables[p][r] != BAD_SENTINEL and int(tables[p][r]) % l == tr
                    for b in range(1, p)
                }
                sets.append(SievingSet(p, 2, frozenset(omega)))
            expected = sifted_set(points, F, sets, SieveSupport(support, Q))
            assert rep.count == len(expected)

    def test_containment_cross_check(self):
        fam = default_elliptic_family()
        n_undecided, failures = exceptional_containment_check(fam, 20, 5, 1000, 200)
        assert n_undecided > 0
        assert failures == []

    def test_containment_check_builds_each_table_once(self, monkeypatch):
        from sievelab import census as census_mod

        calls = []
        real = census_mod.ap_table

        def counting(family, p):
            calls.append(p)
            return real(family, p)

        monkeypatch.setattr(census_mod, "ap_table", counting)
        exceptional_containment_check(default_elliptic_family(), 20, 5, 1000, 200)
        assert len(calls) == len(set(calls)) == 166  # the primes up to 1000 but 2 and 3


class TestCli:
    def test_census_command(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--x", "10", "--pcap", "50", "--out", out, "census"]) == 0
        with open(os.path.join(out, "census.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "x" and rows[1][0] == "10"

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
