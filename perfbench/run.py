"""sievelab benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload census-wide --seed 1 --seconds 15 --trace 0

Run from the root of a sievelab checkout.  Every operation is a fresh
Python process (``python -m sievelab.cli ... --workers 1`` or
``perfbench/ops.py`` for the library experiments), so its wall time and
peak RSS (``os.wait4``) are its own.  One round runs the workload's
operations in order; rounds repeat until ``--seconds`` have passed, and the
outputs of every round are checked afterwards (checks.py).

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` each operation runs once untraced and once under tracer.py,
and the result holds the per-layer metrics.  Per-operation figures, the
environment and the tracing account are printed above the result, which is
the last line: a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the benchmark could not run (no sievelab
source in the working directory, or a bad flag).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170  # every run must end within 180 s


@dataclass(frozen=True)
class Op:
    """One operation: ``name`` selects the command and the output check,
    ``args`` holds its parameters."""

    name: str
    args: dict = field(default_factory=dict)


CLI_COMMANDS = {
    "census": "census",
    "sifted_class_set": "sifted-class-set",
    "goodred": "goodred",
    "report": "report",
}

# Why each workload is here is in BENCHMARK.json and README.md.
WORKLOADS = {
    "census-wide": [
        Op("census", {"x": [20, 40, 60], "lmax": 13, "pcap": 200}),
        Op("sifted_class_set", {"x": [20, 40, 60], "lmax": 13, "pcap": 200,
                                "l": 5, "class": [0, 1], "Q": 200}),
        Op("goodred", {"x": [20, 40, 60]}),
        Op("report"),
    ],
    "census-deep": [
        Op("census", {"x": [20], "pcap": 1000}),
        Op("sifted_class_set", {"x": [20], "pcap": 1000, "l": 7, "class": [3, 1], "Q": 1000}),
    ],
    "brun-sandwich": [
        Op("goodred", {"x": [300, 2000]}),
        Op("sandwich", {"x": 300, "depths": [1, 2, 3]}),
    ],
    "ffield-groups": [
        Op("chebotarev", {"q": 7, "l": 3, "n": [1, 2, 3]}),
        Op("genus2_census", {"q": 11, "l": 5}),
    ],
}

# Set-up every command pays: a fresh interpreter importing the CLI and
# building the default families.  Sampled before each round, and at least
# SETUP_RUNS times in a run.
SETUP_RUNS = 5
SETUP_CODE = (
    "import sievelab.cli\n"
    "from sievelab.curves import default_elliptic_family, default_genus2_family\n"
    "default_elliptic_family(); default_genus2_family()\n"
)

# The reference: a fixed pure-Python loop run in the benchmark's own process
# before the first operation and after each one.  The benchmark and its
# children stay on one CPU.  On a shared machine that CPU changes speed by
# tens of percent for a second or two at a time while the neighbours work,
# and the loop slows with it; dividing each operation's wall time by the
# mean of the reference times around it leaves mostly the program's own
# cost.  One "ref" is one run of the loop.  Set-up time is reported in
# seconds at REF_SECONDS per ref, the loop's time on an idle CPU of the
# 2-core VM the benchmark was built on, so that it keeps its unit but not
# the neighbours' load.
REF_LOOPS = 2_000_000
REF_SECONDS = 0.2


def reference():
    """Wall time of the reference loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOPS):
        x += i * i
    return time.perf_counter() - t0


END_TO_END = {"setup_s": "s", "round_ref": "ref", "peak_rss_mib": "MiB"}

# Per-layer metrics read from the traced round: "<span>.self_s",
# "<span>.calls", "<span>.peak_mib", the tracer's outcome counters, and the
# tracing overhead.
PER_LAYER = (
    "curves.ap_table.self_s", "curves.ap_table.calls", "curves.ap_table.peak_mib",
    "census.frobenius_tables.self_s",
    "polynomials.eval_mod.self_s", "polynomials.eval_mod.calls",
    "census.point_class_sets.self_s", "census.point_class_sets.calls",
    "curves.surjectivity_verdict.self_s", "curves.surjectivity_verdict.calls",
    "curves.surjectivity_verdict.surjective",
    "heights.height_affine.self_s", "heights.height_affine.calls",
    "heights.enumerate_affine.self_s",
    "census.class_sieving_sets.self_s", "census.class_sieving_sets.peak_mib",
    "sieve.omega_residues",
    "sieve.sifted_set.self_s", "sieve.sifted_set.points",
    "heights.enumerate_projective.self_s", "heights.enumerate_projective.calls",
    "heights.enumerate_projective.peak_mib",
    "brun.good_reduction_census.self_s", "brun.good_reduction_census.peak_mib",
    "brun.primes_below.self_s", "brun.primes_below.calls",
    "brun.sandwich.self_s", "sieve.large_sieve_L.self_s",
    "groups.charpoly_class_density.self_s", "groups.charpoly_class_density.calls",
    "groups.gl2_elements.self_s", "groups.gl2_elements.calls",
    "finitefield.find_irreducible.self_s", "finitefield.sqrt_counts.self_s",
    "chebotarev.ffield_specializations.self_s",
    "chebotarev.ffield_frobenius.self_s", "chebotarev.ffield_frobenius.calls",
    "polynomials.eval_field.self_s", "polynomials.eval_field.calls",
    "curves.genus2_counts.self_s", "curves.genus2_counts.calls",
    "cli.load_config.self_s",
    "trace.overhead_s",
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".peak_mib"):
        return "MiB"
    return "count"


class Runner:
    """Runs operations as child processes inside one work directory."""

    def __init__(self, root, work, seed):
        self.work = work
        self.seed = seed
        self.began = time.perf_counter()
        path = os.path.join(root, "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path)

    def command(self, op, out):
        a = op.args
        if op.name not in CLI_COMMANDS:
            argv = [os.path.join(BENCH, "ops.py"), op.name, "--out", out]
            for key in ("x", "q", "l"):
                if key in a:
                    argv += [f"--{key}", str(a[key])]
            for key in ("depths", "n"):
                if key in a:
                    argv += [f"--{key}", ",".join(map(str, a[key]))]
            return argv
        argv = ["-m", "sievelab.cli", "--out", out, "--workers", "1", "--seed", str(self.seed)]
        if "x" in a:
            argv += ["--x", ",".join(map(str, a["x"]))]
        for key in ("lmax", "pcap"):
            if key in a:
                argv += [f"--{key}", str(a[key])]
        argv.append(CLI_COMMANDS[op.name])
        if op.name == "sifted_class_set":
            argv += ["--l", str(a["l"]), "--class", ",".join(map(str, a["class"])), "--Q", str(a["Q"])]
        return argv

    def spawn(self, argv, log):
        """(wall s, peak RSS MiB, exit code, spawn time, exit time) of one child."""
        limit = max(1.0, DEADLINE_S - (time.perf_counter() - self.began))
        with open(log, "ab") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work, env=self.env,
                stdout=fh, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t1 - t0, usage.ru_maxrss / 1024, proc.returncode, t0, t1

    def setup_sample(self):
        """Wall time of one set-up (SETUP_CODE in a fresh interpreter)."""
        log = os.path.join(self.work, "setup.log")
        wall, _, status, _, _ = self.spawn(["-c", SETUP_CODE], log)
        if status != 0:
            raise RuntimeError(f"set-up failed; see {log}")
        return wall


@dataclass
class Result:
    op: Op
    out: str
    wall: float
    rss: float
    code: int
    log: str
    spans: str = None
    spawned: float = 0.0
    exited: float = 0.0


def run_op(runner, op, out, traced=False):
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, f"{op.name}.log")
    argv = runner.command(op, out)
    spans = None
    if traced:
        spans = os.path.join(out, f"{op.name}.spans.json")
        argv = [os.path.join(BENCH, "tracer.py"), spans, *argv]
    wall, rss, code, t0, t1 = runner.spawn(argv, log)
    return Result(op, out, wall, rss, code, log, spans, t0, t1)


def verify(results):
    """(failed, correct, problems): an operation fails when its process
    fails or its check finds a problem; the run stays correct only when
    every problem is the known fault."""
    failed, correct, problems = 0, True, []
    for r in results:
        if r.code != 0:
            found = [f"{r.op.name} exited with {r.code}; see {r.log}"]
        else:
            try:
                found = checks.CHECKS[r.op.name](r.op.args, r.out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                found = [f"{r.op.name}: output unreadable: {e!r}"]
        if found:
            failed += 1
            correct &= all(p.startswith(checks.KNOWN_FAULT) for p in found)
            problems += found
    return failed, correct, problems


def layer_metrics(traced):
    """Sum self time, calls and counters over the traced operations; take
    the largest tracemalloc peak; and split each traced wall time into the
    layers' self time and the remainder outside every layer span."""
    self_s, calls, counters, peaks, account = {}, {}, {}, {}, {}
    for r in traced:
        if r.spans is None or not os.path.exists(r.spans):
            continue
        with open(r.spans, encoding="utf-8") as fh:
            doc = json.load(fh)
        nid = np.asarray(doc["name_id"], dtype=np.int64)
        parent = np.asarray(doc["parent"], dtype=np.int64)
        dur = np.asarray(doc["end"]) - np.asarray(doc["start"])
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        own = np.bincount(nid, weights=dur - child, minlength=len(doc["names"]))
        n = np.bincount(nid, minlength=len(doc["names"]))
        for i, name in enumerate(doc["names"]):
            self_s[name] = self_s.get(name, 0.0) + float(own[i])
            calls[name] = calls.get(name, 0) + int(n[i])
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in doc["peaks"].items():
            peaks[k] = max(peaks.get(k, 0.0), v)
        # Span 0 is the root "op": it opens first and closes last.
        root_own = float(own[doc["names"].index("op")])
        outside = (doc["start"][0] - r.spawned) + (r.exited - doc["end"][0])
        account[r.op.name] = (float(own.sum()) - root_own, root_own, outside)
    return self_s, calls, counters, peaks, account


def per_layer_value(name, self_s, calls, counters, peaks):
    for suffix, table in ((".self_s", self_s), (".calls", calls), (".peak_mib", peaks)):
        if name.endswith(suffix):
            return table.get(name[: -len(suffix)], 0)
    return counters.get(name, 0)


def env_info(root):
    sha = None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 1024,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def median_by_op(results, attr):
    by = {}
    for r in results:
        by.setdefault(r.op.name, []).append(getattr(r, attr))
    return {name: statistics.median(v) for name, v in by.items()}


def measure(runner, ops, seconds):
    """Whole rounds until ``seconds`` have passed, with a set-up sample
    before each round and the reference loop after every child.  Returns
    (rounds, round times in refs, set-up times in refs)."""
    rounds, ratios, setups = [], [], []
    before = reference()

    def in_refs(wall):
        nonlocal before
        after = reference()
        ratio = wall / ((before + after) / 2)
        before = after
        return ratio

    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        setups.append(in_refs(runner.setup_sample()))
        out = os.path.join(runner.work, f"round{len(rounds)}")
        rnd, total = [], 0.0
        for op in ops:
            rnd.append(run_op(runner, op, out))
            total += in_refs(rnd[-1].wall)
        rounds.append(rnd)
        ratios.append(total)
    while len(setups) < SETUP_RUNS:
        setups.append(in_refs(runner.setup_sample()))
    return rounds, ratios, setups


def trace_round(runner, ops, k):
    """Each operation once untraced and once traced, back to back."""
    plain, traced = [], []
    for op in ops:
        plain.append(run_op(runner, op, os.path.join(runner.work, f"plain{k}")))
        traced.append(run_op(runner, op, os.path.join(runner.work, f"traced{k}"), traced=True))
    return plain, traced


def pair_metrics(plain, traced):
    """Per-layer metrics of one traced round; prints how each traced wall
    time splits into layer self times and the remainder."""
    self_s, calls, counters, peaks, account = layer_metrics(traced)
    for p, t in zip(plain, traced):
        if t.op.name not in account:
            continue
        layers, root_own, outside = account[t.op.name]
        rest = root_own + outside
        print(
            f"trace {t.op.name}: traced {t.wall:.4f} s = layer self times {layers:.4f} s"
            f" + remainder {rest:.4f} s (interpreter start and exit {outside:.4f} s)"
            f" {t.wall - layers - rest:+.6f} s; untraced {p.wall:.4f} s,"
            f" tracing overhead {t.wall - p.wall:+.4f} s"
        )
    metrics = {name: per_layer_value(name, self_s, calls, counters, peaks) for name in PER_LAYER}
    metrics["trace.overhead_s"] = sum(r.wall for r in traced) - sum(r.wall for r in plain)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sievelab", "cli.py")):
        print("perfbench: no sievelab source under ./src; run from a checkout root", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench-work", str(os.getpid()))
    os.makedirs(work)
    try:
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's work directory is still there


def run(args, root, work):
    ops = WORKLOADS[args.workload]
    env = env_info(root)
    env["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    runner = Runner(root, work, args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        timed, results, pairs = [], [], []
        start = time.perf_counter()
        while not pairs or time.perf_counter() - start < args.seconds:
            plain, traced = trace_round(runner, ops, len(pairs))
            timed += plain
            results += plain + traced
            pairs.append(pair_metrics(plain, traced))
        metrics = {name: statistics.median(m[name] for m in pairs) for name in PER_LAYER}
        units = {name: layer_unit(name) for name in PER_LAYER}
        print(f"traced rounds {len(pairs)}")
    else:
        rounds, ratios, setups = measure(runner, ops, args.seconds)
        timed = results = [r for rnd in rounds for r in rnd]
        walls = [sum(r.wall for r in rnd) for rnd in rounds]
        metrics = {
            "setup_s": statistics.median(setups) * REF_SECONDS,
            "round_ref": statistics.mean(ratios),
            "peak_rss_mib": statistics.median(max(r.rss for r in rnd) for rnd in rounds),
        }
        units = END_TO_END
        print(f"rounds {len(rounds)}: " + " ".join(f"{w:.4f}" for w in walls) + " s")
        print("rounds in refs: " + " ".join(f"{v:.3f}" for v in ratios))
        print(f"round_s {statistics.median(walls):.4f} s")
    for name, v in median_by_op(timed, "wall").items():
        print(f"{name}_s {v:.4f} s")
    for name, v in median_by_op(timed, "rss").items():
        print(f"{name}_rss_mib {v:.1f} MiB")
    failed, correct, problems = verify(results)
    for p in sorted(set(problems)):
        print(f"check: {p}", file=sys.stderr)
    print(f"attempted {len(results)} failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
