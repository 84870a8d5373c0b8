"""Command line front end: run a suite, brute-force a cell, summarize a file."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from ..core import SubmodularOracle, brute_force_opt, normalize
from ..errors import KnapsubError
from .suite import KNOWN_KINDS, ExperimentConfig, build_dataset, run_suite


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.iterations is not None:
        cfg = replace(cfg, iterations=args.iterations)
    rows = run_suite(cfg)
    flagged = [r for r in rows if r.status != "ok"]
    print(f"{len(rows)} cells -> {cfg.output}" +
          (f" ({len(flagged)} flagged)" if flagged else ""))
    return 2 if flagged else 0


def _cmd_brute(args) -> int:
    cfg = ExperimentConfig(
        dataset=args.dataset, kind=args.kind, algorithms=[], k_values=[args.k],
        max_movies=args.max_movies, max_users=args.max_users)
    cfg.validate()
    label, objective, raw = build_dataset(cfg)
    instance = normalize(raw, args.k)
    oracle = SubmodularOracle(instance, objective)
    opt = brute_force_opt(instance, oracle)
    print(f"{label} K={args.k}: optimum {opt.value!r}, "
          f"cost {opt.cost!r}, ids {sorted(opt.ids)}")
    return 0


def _sniff_kind(path) -> str:
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                return "movielens-csv" if line.startswith("userId,") else "snap-edgelist"
    return "snap-edgelist"


def _cmd_verify(args) -> int:
    kind = args.kind or _sniff_kind(args.path)
    cfg = ExperimentConfig(dataset=args.path, kind=kind, algorithms=[],
                           k_values=[1.0])
    label, _, raw = build_dataset(cfg)
    print(f"{label}: kind={kind}, {len(raw)} elements, min cost "
          f"{min((c for _, c in raw), default=0.0):.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench")
    sub = parser.add_subparsers(dest="command", required=True)
    # a synthetic graph is generated, not read: no file kind
    file_kinds = [k for k in KNOWN_KINDS if k != "synthetic"]

    p_run = sub.add_parser("run", help="run a configured experiment suite")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--iterations", type=int, default=None,
                       help="override the configured iteration count")
    p_run.set_defaults(fn=_cmd_run)

    p_brute = sub.add_parser("brute", help="exact optimum for one dataset and K")
    p_brute.add_argument("--dataset", required=True)
    p_brute.add_argument("--k", type=float, required=True)
    p_brute.add_argument("--kind", default="snap-edgelist", choices=file_kinds)
    p_brute.add_argument("--max-movies", type=int, default=None)
    p_brute.add_argument("--max-users", type=int, default=None)
    p_brute.set_defaults(fn=_cmd_brute)

    p_data = sub.add_parser("datasets", help="dataset utilities")
    data_sub = p_data.add_subparsers(dest="subcommand", required=True)
    p_verify = data_sub.add_parser(
        "verify", help="parse a file and print its size and minimum cost")
    p_verify.add_argument("path")
    p_verify.add_argument("--kind", default=None, choices=file_kinds)
    p_verify.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (KnapsubError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
