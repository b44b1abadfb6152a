"""Run one library experiment of sievelab and write its result as JSON.

    python perfbench/ops.py sandwich --x 300 --depths 1,2,3 --out DIR
    python perfbench/ops.py chebotarev --q 5 --l 3 --n 1,2,3,4 --out DIR
    python perfbench/ops.py genus2_census --q 5 --l 3 --out DIR

``sandwich`` sifts the canonical points of P^1(Q) of height <= x by the
zeros of the homogenised bad locus of the default genus-1 family mod every
prime p < Q = floor(sqrt(x)) outside the family's excluded primes; it runs
the Bonferroni sandwich at each depth and with full Moebius weights, and
L(Q) on the same densities.  The other two run the function-field census
and the genus-2 census of the default families.  The CLI has no command for
these experiments, so the benchmark drives the library directly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from sievelab import brun, chebotarev, heights, sieve
from sievelab.curves import default_elliptic_family, default_genus2_family


def _fr(v):
    return f"{v.numerator}/{v.denominator}"


def run_sandwich(x, depths):
    family = default_elliptic_family()
    f = family.bad_locus.homogenize()
    Q = max(2, math.isqrt(x))
    primes = tuple(p for p in brun.primes_below(Q) if p not in family.excluded_primes)
    sets = {
        p: sieve.SievingSet.from_predicate(p, 2, lambda v, p=p: f.eval_mod(v, p) == 0)
        for p in primes
    }
    support = sieve.SieveSupport(primes, Q)
    points = heights.enumerate_projective(1, x)
    rows = []
    for b in list(depths) + [None]:
        rep = brun.sandwich(points, lambda pt: pt.coords, sets, support, b=b)
        rows.append({"depth": b, **json.loads(rep.to_json())})
    L = sieve.large_sieve_L(support, {p: sieve.local_density(s) for p, s in sets.items()})
    return {
        "x": x,
        "Q": Q,
        "support": list(primes),
        "n_points": len(points),
        "sandwich": rows,
        "L_of_Q": _fr(L),
    }


def run_chebotarev(q, l, ns):
    reports = chebotarev.chebotarev_report(default_elliptic_family(), q, l, ns)
    return [json.loads(c.to_json()) for c in reports]


def run_genus2_census(q, l):
    return json.loads(chebotarev.genus2_census(default_genus2_family(), q, l).to_json())


def _ints(text):
    return [int(v) for v in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/ops.py")
    parser.add_argument("experiment", choices=["sandwich", "chebotarev", "genus2_census"])
    parser.add_argument("--out", required=True)
    parser.add_argument("--x", type=int)
    parser.add_argument("--depths", type=_ints, default=[1, 2, 3])
    parser.add_argument("--q", type=int)
    parser.add_argument("--l", type=int)
    parser.add_argument("--n", type=_ints)
    args = parser.parse_args(argv)
    if args.experiment == "sandwich":
        result = run_sandwich(args.x, args.depths)
    elif args.experiment == "chebotarev":
        result = run_chebotarev(args.q, args.l, args.n)
    else:
        result = run_genus2_census(args.q, args.l)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{args.experiment}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
