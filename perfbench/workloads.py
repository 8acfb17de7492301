"""The two benchmark workloads and their output checks.

Each workload builds its inputs from the seed in its constructor (this is
what ``setup_s`` times in a fresh interpreter) and runs one closed-loop pass
over its operations in ``run_pass``, which returns one ``Op`` per operation.
An operation fails when its output check fails.

Workloads call projfeas through the package namespace at call time
(``self.pf.run_suite``), so a tracer that rebinds those names sees the calls.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no program, or the wrong one)."""


def load_projfeas():
    """Import projfeas from this checkout's ``src/`` tree and nowhere else."""
    package = SRC / "projfeas"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no projfeas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import projfeas

    if Path(projfeas.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported projfeas from {projfeas.__file__}, not from {package}")
    return projfeas


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str = ""


def _suite_verdicts(lines):
    """``{preset: [(claim_id, passed), ...]}`` from ``run_suite``'s echo lines."""
    out = {}
    for line in lines:
        mark, rest = line.split("] ", 1)
        name, claim = rest.split(" :: ", 1)
        out.setdefault(name, []).append((claim.split(" (", 1)[0], mark == "[pass"))
    return out


class Estimators:
    """Four presets at their own 4096-sample budget, no trace files:
    the regularity estimators take nearly all of the time."""

    PRESETS = ("example-i", "example-ii", "example-v", "kinked-regularity")

    def __init__(self, pf, seed):
        self.pf = pf
        self.seed = seed
        self.configs = {n: pf.presets.preset(n).with_overrides(seed=seed) for n in self.PRESETS}
        self.solutions = {n: c.solution_set() for n, c in self.configs.items()}
        self.operators = {n: c.operator() for n, c in self.configs.items()}

    def sizes(self):
        return {
            name: {
                "samples": cfg.regularity.samples,
                "deltas": len(cfg.regularity.deltas),
                "max_iters": cfg.budget.max_iters if cfg.algorithm else 0,
            }
            for name, cfg in self.configs.items()
        }

    def run_pass(self, scratch):
        lines = []
        self.pf.run_suite(list(self.PRESETS), seed=self.seed, echo=lines.append)
        verdicts = _suite_verdicts(lines)
        ops = []
        for name in self.PRESETS:
            got = verdicts.get(name, [])
            failed = [claim for claim, passed in got if not passed]
            ok = bool(got) and not failed
            ops.append(Op(name, ok, f"failed verdicts {failed}" if failed else ""))
        return ops


class Tangency:
    """One long MAP trace on the tangent line/ball pair (example-iii),
    written to CSV: the iteration loop and the trace writer take nearly half
    of a pass, the estimator sweep and claims the rest."""

    PRESET = "example-iii"
    MAX_ITERS = 50_000
    KNOWN_RED = "iii-map-tolerance-within-budget"  # dist_n = (n+1)**-0.5 cannot reach 1e-6

    def __init__(self, pf, seed):
        self.pf = pf
        self.seed = seed
        self.config = pf.presets.preset(self.PRESET).with_overrides(seed=seed, max_iters=self.MAX_ITERS)
        self.solution = self.config.solution_set()
        self.operator = self.config.operator()

    def sizes(self):
        return {
            self.PRESET: {
                "samples": self.config.regularity.samples,
                "deltas": len(self.config.regularity.deltas),
                "max_iters": self.MAX_ITERS,
            }
        }

    def run_pass(self, scratch):
        lines = []
        status = self.pf.run_suite(
            [self.PRESET], out_dir=scratch, seed=self.seed, max_iters=self.MAX_ITERS,
            echo=lines.append,
        )
        problems = []
        for claim, passed in _suite_verdicts(lines).get(self.PRESET, []):
            if passed == (claim == self.KNOWN_RED):
                problems.append(f"{claim} {'passed' if passed else 'failed'}")
        if status != 1:
            problems.append(f"suite exit status {status}, expected 1 (the documented red)")
        report = (scratch / self.config.outputs.report).read_text()
        trace = json.loads(report.split("--- machine ---\n", 1)[1])["traces"][0]
        expected = (self.MAX_ITERS + 1) ** -0.5
        if trace["stop_reason"] != "max_iters" or trace["iterations"] != self.MAX_ITERS:
            problems.append(f"stopped on {trace['stop_reason']} after {trace['iterations']}")
        if not math.isclose(trace["final_dist_to_s"], expected, rel_tol=1e-9, abs_tol=0.0):
            problems.append(f"final distance {trace['final_dist_to_s']!r} != (n+1)**-0.5 = {expected!r}")
        rows = (scratch / self.config.outputs.trace_csv).read_bytes().splitlines()
        if len(rows) != self.MAX_ITERS + 2 or not rows[-1].startswith(b"%d," % self.MAX_ITERS):
            problems.append(f"trace CSV has {len(rows)} lines")
        return [Op(self.PRESET, not problems, "; ".join(problems))]


class Suite:
    """The estimator presets, then the tangency trace: what ``projfeas suite``
    runs.  One pass takes ~30 s, ~90% of it in the regularity estimators and
    ~10% in the long MAP trace and its CSV.

    The two parts are one workload so that every run can time two whole
    passes and the runs still fit their overall time limit: on a shared
    machine a ~20 s window catches one slow or fast phase of the host and
    no more."""

    def __init__(self, pf, seed):
        self.parts = (Estimators(pf, seed), Tangency(pf, seed))

    def sizes(self):
        return {name: size for part in self.parts for name, size in part.sizes().items()}

    def run_pass(self, scratch):
        return [op for part in self.parts for op in part.run_pass(scratch)]


class Multistart:
    """Fixed-point probes from seeded starts on four geometries: many short
    iterate calls and no sampled estimators.

    ``subspace_iff_sweep`` is left out: its rank-test verdict fails for some
    base seeds (a strongly regular random pair whose Douglas-Rachford rate is
    too close to 1 to reach tol within max_iters), so a pass seeded from an
    arbitrary seed would not have a correct expected output."""

    GEOMETRIES = ("example-iv", "example-iv-map", "example-iii-dr", "example-v")
    OFF_SOLUTION = "example-iii-dr"  # DR has fixed points off the intersection here
    STARTS = 300  # the iii-dr iteration count varies by seed; more starts average it out
    RADIUS = 1.5

    def __init__(self, pf, seed):
        self.pf = pf
        self.seed = seed
        self.cases = []
        for name in self.GEOMETRIES:
            cfg = pf.presets.preset(name)
            sol = cfg.solution_set()
            self.cases.append((name, cfg, cfg.operator(), sol, pf.Region(sol.witness, self.RADIUS)))
        self.reference = None  # OFF_SOLUTION's limits in the run's first pass

    def sizes(self):
        return {
            name: {"starts": self.STARTS, "radius": self.RADIUS,
                   "max_iters": cfg.budget.max_iters, "tol": cfg.budget.tol}
            for name, cfg, *_ in self.cases
        }

    def run_pass(self, scratch):
        ops = []
        for name, cfg, op, sol, region in self.cases:
            probe = self.pf.probe_fixed_points(
                op, region, self.STARTS, self.seed, sol,
                max_iters=cfg.budget.max_iters, tol=cfg.budget.tol,
            )
            limits = np.array([x for x, _ in probe.limits])
            dists = np.array([d for _, d in probe.limits])
            if name == self.OFF_SOLUTION:
                if self.reference is None:
                    self.reference = limits
                problems = []
                if not np.array_equal(limits, self.reference):
                    problems.append("limits differ from the reference run")
                if not dists.max() > 0.01:
                    problems.append(f"no limit off the solution set (max {dists.max():.3e})")
                ops.append(Op(name, not problems, "; ".join(problems)))
            else:
                bad = int(np.sum(~(dists < cfg.budget.tol)))
                ops.append(Op(name, bad == 0, f"{bad} limits outside tol" if bad else ""))
        return ops


WORKLOADS = {"suite": Suite, "multistart": Multistart}
