"""Fast self-test of the benchmark harness (well under a minute).

    python3 perfbench/selftest.py

Run from the root of a sievelab checkout.  It runs every operation kind
once at tiny sizes, untraced and traced, and asserts that the metrics in
each result line are exactly those BENCHMARK.json lists, with the same
units.  It then corrupts each output artifact in turn and asserts that the
operation's check rejects it, and that the census check flags the l = 3
fault only while surjective_l3 is nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import sys

import checks
import run

TINY = [
    run.Op("census", {"x": [5, 10], "lmax": 7, "pcap": 60}),
    run.Op("sifted_class_set", {"x": [5, 10], "lmax": 7, "pcap": 60, "l": 5, "class": [0, 1], "Q": 60}),
    run.Op("goodred", {"x": [10, 50]}),
    run.Op("report"),
    run.Op("sandwich", {"x": 50, "depths": [1, 2]}),
    run.Op("chebotarev", {"q": 5, "l": 3, "n": [1, 2]}),
    run.Op("genus2_census", {"q": 7, "l": 5}),
]


def run_tiny(root, work, trace):
    args = argparse.Namespace(workload="selftest", seed=7, seconds=0, trace=trace)
    os.makedirs(work)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run.run(args, root, work)
    assert code == 0, buf.getvalue()
    return json.loads(buf.getvalue().splitlines()[-1])


def edit_csv(path, row, column, change):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row][col] = str(change(int(rows[row][col])))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def edit_json(path, change):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _bump_first_frequency(reports):
    freq = reports[0]["frequencies"]
    key = sorted(freq)[0]
    num, den = freq[key].split("/")
    freq[key] = f"{int(num) + 1}/{den}"


def _shift_l5(path):
    edit_csv(path, 1, "surjective_l5", lambda v: v - 1)
    edit_csv(path, 1, "undecided_l5", lambda v: v + 1)


CORRUPTIONS = {
    "census": [
        lambda d: edit_csv(os.path.join(d, "census.csv"), 1, "n_points", lambda v: v + 1),
        lambda d: _shift_l5(os.path.join(d, "census.csv")),
    ],
    "sifted_class_set": [
        lambda d: edit_json(os.path.join(d, "class_set_l5_tr0.json"),
                            lambda doc: doc.update(count=doc["count"] + 1)),
    ],
    "goodred": [
        lambda d: edit_csv(os.path.join(d, "goodred.csv"), 1, "count", lambda v: v + 1),
    ],
    "report": [
        lambda d: edit_json(os.path.join(d, "report.json"), lambda doc: doc["goodred.csv"].pop()),
    ],
    "sandwich": [
        lambda d: edit_json(os.path.join(d, "sandwich.json"),
                            lambda doc: doc["sandwich"][0].update(lower="999999/1")),
    ],
    "chebotarev": [
        lambda d: edit_json(os.path.join(d, "chebotarev.json"), _bump_first_frequency),
    ],
    "genus2_census": [
        lambda d: edit_json(os.path.join(d, "genus2_census.json"),
                            lambda doc: doc.update(n_points=doc["n_points"] + 1)),
    ],
}


def real_problems(op, out):
    return [p for p in checks.CHECKS[op.name](op.args, out) if not p.startswith(checks.KNOWN_FAULT)]


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    run.WORKLOADS["selftest"] = TINY
    work = os.path.join(root, ".perfbench-work", f"selftest{os.getpid()}")
    os.makedirs(work)
    try:
        for trace in (0, 1):
            result = run_tiny(root, os.path.join(work, f"trace{trace}"), trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared[trace], (trace, set(printed) ^ set(declared[trace]))
            assert result["correct"], result
            assert result["failed"] == (1 + trace), result  # census, from the l = 3 fault

        # Fresh outputs for the corruption tests.
        runner = run.Runner(root, work, seed=7)
        out = os.path.join(work, "pristine")
        for op in TINY:
            assert run.run_op(runner, op, out).code == 0, op
        for op in TINY:
            assert real_problems(op, out) == [], (op.name, real_problems(op, out))
            for i, corrupt in enumerate(CORRUPTIONS[op.name]):
                bad = os.path.join(work, f"{op.name}{i}")
                shutil.copytree(out, bad)
                corrupt(bad)
                assert real_problems(op, bad), f"check_{op.name} accepted corruption {i}"

        census = TINY[0]
        assert any(p.startswith(checks.KNOWN_FAULT) for p in checks.check_census(census.args, out))
        fixed = os.path.join(work, "l3-undecided")
        shutil.copytree(out, fixed)
        with open(os.path.join(fixed, "census.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for r in range(1, len(rows)):
            edit_csv(os.path.join(fixed, "census.csv"), r, "surjective_l3", lambda v: 0)
            edit_csv(os.path.join(fixed, "census.csv"), r, "undecided_l3", lambda v, n=rows[r][1]: int(n))
        assert checks.check_census(census.args, fixed) == []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
