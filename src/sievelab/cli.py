"""Command-line front end: census, sifted-class-set, goodred, report.

Configuration comes from a JSON file plus flag overrides; outputs are CSV
and JSON artifacts in the configured directory.  Exit codes: 0 success,
2 configuration error, 3 infeasible-cap error.  Commands load numpy only after their
checks, and ``goodred`` and ``report`` not at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import (ConfigError, CurveFamily, ExperimentConfig, InfeasibleError, L_LIMIT,
                     _check_x, _prime_divisors, check_class_set, check_goodred_x,
                     default_elliptic_family, default_genus2_family, merged_report,
                     write_goodred_csv)

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
            if not os.path.exists(value):
                raise ConfigError(f"family file not found: {value}")
            with open(value, encoding="utf-8") as fh:
                return CurveFamily.from_json(fh.read())
        return CurveFamily.from_json(json.dumps(value))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise ConfigError(f"bad family document: {e!r}")


def _int_tuple(value, key):
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of integers")
    return tuple(value)


def load_config(args):
    doc = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as e:
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
        l_values = [l for l in range(3, min(args.lmax, 2 * L_LIMIT) + 1)
                    if _prime_divisors(l) == [l]]

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


def cmd_census(cfg):
    _check_x(max(cfg.x_values))
    from .census import census, write_census_csv, write_reasons_csv
    rows, _, _ = census(cfg.family, cfg.x_values, cfg.l_values, cfg.pcap)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_reasons_csv(os.path.join(cfg.out_dir, "census_reasons.csv"), rows, cfg.l_values)
    path = os.path.join(cfg.out_dir, "census.csv")
    write_census_csv(path, rows, cfg.l_values)
    print(path)
    return EXIT_OK


def cmd_sifted_class_set(cfg, l, class_key, Q):
    x = max(cfg.x_values)
    check_class_set(x, l, class_key)
    from .census import sifted_class_set
    rep = sifted_class_set(cfg.family, x, l, class_key, cfg.pcap, Q)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"class_set_l{l}_tr{rep.class_key[0]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rep.to_json() + "\n")
    print(path)
    return EXIT_OK


def cmd_goodred(cfg):
    check_goodred_x(cfg.family, max(cfg.x_values))
    from .brun import good_reduction_census
    out = []
    for x in cfg.x_values:
        Q = max(2, int(x**0.5))
        out.append(good_reduction_census(cfg.family, x, Q))
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "goodred.csv")
    write_goodred_csv(path, out)
    print(path)
    return EXIT_OK


def cmd_report(cfg):
    try:
        text = merged_report(cfg.out_dir)
    except FileNotFoundError as e:
        raise ConfigError(str(e))
    path = os.path.join(cfg.out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(path)
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
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
