"""Run one benchmark operation with sievelab's public functions traced.

    python perfbench/tracer.py SPANS.json -m sievelab.cli ARGS...
    python perfbench/tracer.py SPANS.json perfbench/ops.py ARGS...

Before the operation starts, every public module-level function of each
sievelab module (and the methods named in METHODS) is replaced by a wrapper,
in the defining module and in every module that imported the name.  The
wrapper records a span (name, parent, start, end) in memory, counts the
outcomes named in COUNTERS, and measures the tracemalloc peak of the
functions in PEAK.  The spans are written to SPANS.json when the operation
ends, together with the counters and peaks.  A root span ``op`` covers the
whole operation, so time inside it that no wrapped function covers is the
root's own time.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
import json
import sys
import time
import tracemalloc
from array import array

MODULES = (
    "brun", "census", "chebotarev", "cli", "curves", "finitefield",
    "groups", "heights", "polynomials", "sieve",
)

# Public methods worth a span: name -> (module, class, attribute).
METHODS = {
    "polynomials.eval_mod": ("polynomials", "Poly", "eval_mod"),
    "polynomials.eval_field": ("polynomials", "Poly", "eval_field"),
    "finitefield.sqrt_counts": ("finitefield", "ExtField", "sqrt_counts"),
}

# Matrix primitives called millions of times inside the group closures; a
# span costs more than their bodies, so their time stays with the caller.
SKIP = {
    f"groups.{name}"
    for name in (
        "mat_mul", "mat_neg", "identity", "mat_det", "mat_inv", "mat_trace",
        "charpoly_e1_e2", "symplectic_J", "similitude_factor", "transvection", "pm1_rep",
    )
}

PEAK = {
    "curves.ap_table",
    "census.class_sieving_sets",
    "heights.enumerate_projective",
    "brun.good_reduction_census",
}

# Outcome counters: span name -> (counter name, f(args, result) -> amount).
COUNTERS = {
    "curves.surjectivity_verdict": (
        "curves.surjectivity_verdict.surjective",
        lambda args, result: int(result == "surjective"),
    ),
    "sieve.sifted_set": ("sieve.sifted_set.points", lambda args, result: len(args[0])),
    "census.class_sieving_sets": (
        "sieve.omega_residues",
        lambda args, result: sum(s.cardinality for s in result.values()),
    ),
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {}
        self.peaks = {}
        self.mem = []  # [baseline, highest peak seen] per open PEAK span

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        peak = name in PEAK
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack, name_id, parent, start, end = self.stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            if peak:
                self._mem_enter()
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                if peak:
                    self._mem_exit(name)
                stack.pop()
            if counter:
                key, amount = counter
                self.counters[key] = self.counters.get(key, 0) + amount(args, result)
            return result

        return traced

    def _mem_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self.mem.append([0, 0])
            return
        current, peak = tracemalloc.get_traced_memory()
        for frame in self.mem:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self.mem.append([current, current])

    def _mem_exit(self, name):
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self.mem.pop()
        mib = (max(seen, peak) - base) / 2**20
        self.peaks[name] = max(self.peaks.get(name, 0.0), mib)
        for frame in self.mem:
            frame[1] = max(frame[1], peak)
        if not self.mem:
            tracemalloc.stop()

    def dump(self, path):
        doc = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": self.counters,
            "peaks": self.peaks,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer, extra_modules=()):
    """Wrap the public functions and rebind every imported copy."""
    mods = {short: importlib.import_module(f"sievelab.{short}") for short in MODULES}
    originals = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in SKIP
            ):
                originals[id(obj)] = tracer.wrap(name, obj)
    for name, (short, cls, attr) in METHODS.items():
        owner = getattr(mods[short], cls)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    holders = [m for n, m in sys.modules.items() if n.startswith("sievelab")]
    for mod in holders + list(extra_modules):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in originals:
                setattr(mod, attr, originals[id(obj)])


def main(argv):
    spans_path, target, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    if target == "-m":
        module, args = importlib.import_module(rest[0]), rest[1:]
        extra = ()
    else:
        spec = importlib.util.spec_from_file_location("perfbench_ops", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        args, extra = rest, (module,)
    install(tracer, extra)
    entry = tracer.wrap("op", module.main)
    try:
        code = entry(args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
