"""Command-line entry point.

Verbs:
    run <config>      run one experiment (preset name or YAML config path; not the sweep)
    rates <config>    estimators only, no iteration (not the sweep)
    suite [names...]  run presets and the subspace sweep, each with the flags (default: all)
    presets           list built-in presets

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, load_config
from .presets import PRESETS, preset
from .runner import RUNS, run_experiment, run_suite


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
    p_suite.add_argument("names", nargs="*", help="subset of the runs `presets` lists (default: all)")
    _common(p_suite)

    sub.add_parser("presets", help="list built-in presets")
    return parser


def _resolve_config(ref):
    if ref in PRESETS:
        return preset(ref)
    if ref in RUNS:
        raise ConfigError("<config>", f"{ref!r} is a sweep of many experiments: run it with `projfeas suite {ref}`")
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

    overrides = {key: vars(args).get(key) for key in ("samples", "seed", "max_iters", "tol")}
    try:
        if args.verb == "presets":
            for name in RUNS:
                print(name if name in PRESETS else f"{name} (sweep)")
            return 0

        if args.verb in ("run", "rates"):
            cfg = _resolve_config(args.config).with_overrides(**overrides)
            if args.verb == "rates":
                cfg = replace(cfg, start=None)
            doc = run_experiment(cfg, out_dir=args.out_dir, with_claims=args.verb == "run")
            sys.stdout.write(doc.to_text())
            return doc.exit_status

        if args.verb == "suite":
            return run_suite(args.names, out_dir=args.out_dir, **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
