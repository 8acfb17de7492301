"""Command-line entry point.

Verbs:
    run <config>      run one experiment (preset name or YAML config path)
    rates <config>    estimators only, no iteration
    suite [names...]  run presets plus the subspace sweep (default: all)
    presets           list built-in presets

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, load_config
from .presets import PRESETS, SWEEPS, preset
from .runner import run_experiment, run_suite


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="projfeas",
        description="Projection/reflection feasibility runs with regularity estimates",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def _common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--max-iters", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out-dir", default="runs")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config", help="preset name or path to a YAML config")
    _common(p_run)

    p_rates = sub.add_parser("rates", help="estimators only, no iteration")
    p_rates.add_argument("config", help="preset name or path to a YAML config")
    _common(p_rates)

    p_suite = sub.add_parser("suite", help="run presets and the subspace sweep")
    p_suite.add_argument("names", nargs="*", help="subset of presets/sweeps (default: all)")
    _common(p_suite)

    sub.add_parser("presets", help="list built-in presets")
    return parser


def _resolve_config(ref):
    if ref in PRESETS:
        return preset(ref)
    path = Path(ref)
    if not path.exists():
        raise ConfigError("<config>", f"{ref!r} is neither a preset nor an existing file")
    return load_config(path)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.verb == "presets":
            for name in sorted(PRESETS):
                print(name)
            for name in SWEEPS:
                print(f"{name} (sweep)")
            return 0

        if args.verb in ("run", "rates"):
            cfg = _resolve_config(args.config).with_overrides(
                samples=args.samples, seed=args.seed, max_iters=args.max_iters, tol=args.tol
            )
            if args.verb == "rates":
                cfg = replace(cfg, start=None)
            doc = run_experiment(cfg, out_dir=args.out_dir, with_claims=args.verb == "run")
            sys.stdout.write(doc.to_text())
            return doc.exit_status

        if args.verb == "suite":
            for name in args.names:
                if name not in PRESETS and name not in SWEEPS:
                    raise ConfigError("<suite>", f"unknown preset {name!r}")
            return run_suite(
                args.names,
                out_dir=args.out_dir,
                samples=args.samples,
                seed=args.seed,
                max_iters=args.max_iters,
                tol=args.tol,
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
