"""Smoke test of the library entry points that the benchmark drives.

``perfbench/ops.py`` calls sievelab directly (sandwich, Chebotarev and
genus-2 censuses); each experiment is run once at a small size, so a
change to the library that breaks the benchmark fails here first.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv",
    [
        ["sandwich", "--x", "20", "--depths", "1"],
        ["chebotarev", "--q", "5", "--l", "3", "--n", "1"],
        ["genus2_census", "--q", "5", "--l", "3"],
        # F_{7^3}: 341 curves over 343 cells each span several Horner blocks
        pytest.param(["chebotarev", "--q", "7", "--l", "3", "--n", "3"],
                     id="chebotarev-multiblock"),
    ],
    ids=lambda argv: argv[0],
)
def test_ops_experiment_runs(tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "ops.py"), *argv,
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / f"{argv[0]}.json", encoding="utf-8") as fh:
        assert json.load(fh)
