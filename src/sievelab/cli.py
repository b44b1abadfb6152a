"""Command-line front end: census, sifted-class-set, goodred, report.

Configuration comes from a JSON file plus flag overrides; outputs are CSV
and JSON artifacts in the configured directory.  This module alone reads
and writes files: the layers return data, and ``_write`` writes every
artifact.  Exit codes: 0 success, 2 configuration error, 3 infeasible-cap
error.  Commands load numpy only after their checks, and ``goodred`` and
``report`` not at all.  ``json`` loads only to read a config or family
document and to write the class-set and report JSON, ``csv`` only to write
a CSV or read the report's inputs, and ``fractions`` only in
``sifted-class-set``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .config import (ConfigError, CurveFamily, ExperimentConfig, InfeasibleError, L_LIMIT,
                     _check_x, check_class_set, check_goodred_x, default_elliptic_family,
                     default_genus2_family, primes_below)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

CONFIG_KEYS = {"family", "x", "l", "pcap", "out", "workers", "seed"}


def _load_family(value):
    if value in (None, "default-g1"):
        return default_elliptic_family()
    if value == "default-g2":
        return default_genus2_family()
    try:
        if isinstance(value, str):
            if not os.path.isfile(value):
                raise ConfigError(f"family file not found: {value}")
            with open(value, encoding="utf-8") as fh:
                return CurveFamily.from_json(fh.read())
        import json
        return CurveFamily.from_json(json.dumps(value))
    except ValueError as e:
        raise ConfigError(f"bad family document: {e!r}")


def _int_tuple(value, key):
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of integers")
    return tuple(value)


def load_config(args):
    doc = {}
    if args.config:
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        import json
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"bad config JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    family = _load_family(doc.get("family"))
    x_values = doc.get("x", [20])
    if args.x:
        try:
            x_values = [int(v) for v in args.x.split(",")]
        except ValueError:
            raise ConfigError("--x must be a comma-separated integer list")
    l_values = doc.get("l", [5, 7, 11, 13])
    if args.lmax is not None:
        # primes past 2 * L_LIMIT add nothing but the same infeasibility
        l_values = [l for l in primes_below(min(args.lmax, 2 * L_LIMIT) + 1) if l >= 3]

    def pick(flag, key, default):
        return flag if flag is not None else doc.get(key, default)

    cfg = ExperimentConfig(
        family=family,
        x_values=_int_tuple(x_values, "x"),
        l_values=_int_tuple(l_values, "l"),
        pcap=pick(args.pcap, "pcap", 1000),
        out_dir=pick(args.out, "out", "."),
        workers=pick(args.workers, "workers", 1),
        seed=pick(args.seed, "seed", 0),
    )
    cfg.validate()
    return cfg


def _write(out_dir, name, body, header=None):
    """Write out_dir/name, making out_dir, and return its path: ``body`` is
    the text, or with a ``header`` the CSV rows below it."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline=None if header is None else "", encoding="utf-8") as fh:
        if header is None:
            fh.write(body)
        else:
            import csv
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(body)
    return path


def cmd_census(cfg):
    _check_x(max(cfg.x_values))
    from .census import REASONS, census
    rows, _, _ = census(cfg.family, cfg.x_values, cfg.l_values, cfg.pcap)
    ls = cfg.l_values
    # per (x, l), the undecided count split by the first missing witness
    _write(cfg.out_dir, "census_reasons.csv",
           [[r.x, l, r.undecided[l], *r.reasons[l]] for r in rows for l in ls],
           ["x", "l", "undecided", *REASONS])
    path = _write(
        cfg.out_dir, "census.csv",
        [[r.x, r.n_points, *(v for l in ls for v in (r.surjective[l], r.undecided[l])),
          r.undecided_any, f"{r.fraction:.6f}"] for r in rows],
        ["x", "n_points", *(f"{k}_l{l}" for l in ls for k in ("surjective", "undecided")),
         "undecided_any", "fraction"])
    print(path)
    return EXIT_OK


def cmd_sifted_class_set(cfg, l, class_key, Q):
    x = max(cfg.x_values)
    check_class_set(x, l, class_key)
    import json
    from .census import sifted_class_set
    rep = sifted_class_set(cfg.family, x, l, class_key, cfg.pcap, Q)
    doc = {"l": rep.l, "class": list(rep.class_key), "x": rep.x, "Q": rep.Q,
           "support": list(rep.support), "count": rep.count, "bound_up_to_constant": rep.bound}
    print(_write(cfg.out_dir, f"class_set_l{l}_tr{rep.class_key[0]}.json",
                 json.dumps(doc, sort_keys=True) + "\n"))
    return EXIT_OK


def cmd_goodred(cfg):
    check_goodred_x(cfg.family, max(cfg.x_values))
    from .brun import good_reduction_census
    rows = []
    for x in cfg.x_values:
        c = good_reduction_census(cfg.family, x, max(2, int(x**0.5)))
        rows.append([c.x, c.Q, c.count, f"{c.floor_estimate:.6f}", f"{c.ratio:.6f}"])
    print(_write(cfg.out_dir, "goodred.csv", rows, ["x", "Q", "count", "floor_estimate", "ratio"]))
    return EXIT_OK


def cmd_report(cfg):
    """Deterministic JSON merge of the census and goodred CSVs; idempotent."""
    import csv
    import json
    sources = {}
    for name in ("census.csv", "goodred.csv"):
        path = os.path.join(cfg.out_dir, name)
        if not os.path.isfile(path):
            raise ConfigError(f"missing input: {path}")
        with open(path, newline="", encoding="utf-8") as fh:
            sources[name] = list(csv.reader(fh))
    text = json.dumps(sources, sort_keys=True, separators=(",", ":")) + "\n"
    print(_write(cfg.out_dir, "report.json", text))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="sievelab")
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--x", metavar="LIST", help="comma-separated height bounds")
    parser.add_argument("--lmax", type=int, metavar="N")
    parser.add_argument("--pcap", type=int, metavar="N")
    parser.add_argument("--out", metavar="DIR")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="validated only; affects neither results nor scheduling")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="validated only; affects neither results nor scheduling")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("census")
    p = sub.add_parser("sifted-class-set")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--class", dest="class_key", required=True, metavar="TR,DET")
    p.add_argument("--Q", type=int, required=True)
    sub.add_parser("goodred")
    sub.add_parser("report")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command in ("census", "sifted-class-set") and cfg.family.genus != 1:
            raise ConfigError(f"{args.command} needs a genus-1 family")
        if args.command == "census":
            return cmd_census(cfg)
        if args.command == "sifted-class-set":
            try:
                tr, det = (int(v) for v in args.class_key.split(","))
            except ValueError:
                raise ConfigError("--class must be TR,DET")
            return cmd_sifted_class_set(cfg, args.l, (tr, det), args.Q)
        if args.command == "goodred":
            return cmd_goodred(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def run():
    """The process entry: a command makes no cycles to collect, and a frozen
    heap spares interpreter teardown its walk.  ``main`` leaves gc alone."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
