"""Smoke test of the library entry points that the benchmark drives.

``perfbench/ops.py`` calls sievelab directly (sandwich, Chebotarev and
genus-2 censuses); each experiment is run once at a small size, so a
change to the library that breaks the benchmark fails here first.
``perfbench/tracer.py`` wraps sievelab's functions and the ``Poly`` and
``ExtField`` methods it names, so a traced run is smoke-tested too.  One
round of each workload of ``perfbench/run.py`` runs at its benchmark size
and must pass the benchmark's own output checks (``perfbench/checks.py``).
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench():
    """perfbench/run.py as a module; it imports checks.py from its own directory."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.pop(0)


bench = _load_bench()


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_round_passes_its_checks(tmp_path, workload):
    # one round as the benchmark runs it: each operation a fresh process
    # writing into one round directory, then the same verdict as the run's
    runner = bench.Runner(ROOT, str(tmp_path), 1)
    out = str(tmp_path / "round0")
    results = [bench.run_op(runner, op, out) for op in bench.WORKLOADS[workload]]
    failed, _, problems = bench.verify(results)
    assert (failed, problems) == (0, [])


@pytest.mark.parametrize(
    "argv",
    [
        ["sandwich", "--x", "20", "--depths", "1"],
        ["chebotarev", "--q", "5", "--l", "3", "--n", "1"],
        ["genus2_census", "--q", "5", "--l", "3"],
        # F_{7^3}: 341 curves of 343 points each
        pytest.param(["chebotarev", "--q", "7", "--l", "3", "--n", "3"],
                     id="chebotarev-multiblock"),
    ],
    ids=lambda argv: argv[0],
)
def test_ops_experiment_runs(tmp_path, argv):
    proc = _run([os.path.join(ROOT, "perfbench", "ops.py"), *argv, "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / f"{argv[0]}.json", encoding="utf-8") as fh:
        assert json.load(fh)


@pytest.mark.parametrize(
    "target, spans",
    [
        (["perfbench/ops.py", "sandwich", "--x", "20", "--depths", "1"],
         {"brun.sandwich", "heights.enumerate_projective"}),
        (["-m", "sievelab.cli", "--x", "20", "goodred"],
         {"brun.good_reduction_census"}),
        # the per-layer metrics of the ffield-groups workload
        (["perfbench/ops.py", "chebotarev", "--q", "5", "--l", "3", "--n", "1,2"],
         {"chebotarev.ffield_specializations", "chebotarev.ffield_frobenius",
          "polynomials.eval_field", "finitefield.sqrt_counts"}),
    ],
    ids=["sandwich", "goodred", "chebotarev"],
)
def test_traced_run_records_spans(tmp_path, target, spans):
    out = str(tmp_path / "out")
    if target[0] == "-m":
        target = [*target[:2], "--out", out, *target[2:]]
    else:
        target = [os.path.join(ROOT, target[0]), *target[1:], "--out", out]
    spans_path = tmp_path / "spans.json"
    proc = _run([os.path.join(ROOT, "perfbench", "tracer.py"), str(spans_path), *target])
    assert proc.returncode == 0, proc.stderr
    with open(spans_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    recorded = {doc["names"][i] for i in doc["name_id"]}
    assert "op" in recorded and spans <= recorded


def _run(argv):
    """Run a script under this interpreter with the checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
