"""Experiment runner: estimators, iteration, verdicts, reports.

``run_experiment`` executes the estimator sweep and the configured algorithm,
writes the trace CSV and a report (human-readable text plus a machine JSON
section), and attaches pass/fail verdicts for the claims registered for the
experiment.  ``subspace_iff_sweep`` is one more run: it reads its budget
from a config and returns a ``ReportDocument`` too.  ``run_suite`` runs any
of ``RUNS`` and aggregates their verdicts into an exit status.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import BudgetSpec, ConfigError, ExperimentConfig, OutputSpec, RegularitySpec
from .driver import RateFit, fit_rate, iterate, iterate_many, trace_to_csv
from .linalg import complement_basis  # noqa: F401  perfbench/tracing.py counts calls through it
from .operators import DouglasRachford
from .presets import HALF_SQRT2, PRESETS, preset
from .regularity import (
    SAFETY_INFLATION,
    check_strong_regularity,
    estimate_c,
    estimate_kappa,
    estimate_pair_regularity,
    estimate_subregularity,
    friedrichs_cosine,
    predicted_rates,
)
from .sets import AffineSubspace
from .solution import subspace_pair_solution


@dataclass(frozen=True)
class Verdict:
    claim_id: str
    passed: bool
    measured: object
    bound: str
    detail: str = ""


@dataclass(frozen=True)
class Missing:
    """An input the run did not produce, and why.  Each of its fields is
    missing for the same reason, so ``doc.fit.observed_rate`` reads alike
    whether or not the rate fit exists."""

    reason: str

    def __getattr__(self, name):
        if name.startswith("__"):  # protocol lookups (copy, pickle) find none
            raise AttributeError(name)
        return self


NO_TRACE = Missing("no trace: the config has no start")


def _fit(trace):
    """The rate fit of ``trace``, or a ``Missing`` one if it is too short to fit."""
    try:
        return fit_rate(trace)
    except ValueError as exc:
        return Missing(f"no rate fit: {exc}")


@dataclass
class ReportDocument:
    """One run of ``run_experiment`` or ``subspace_iff_sweep``: what it computed,
    the verdicts read from it, and when.  Its name is ``cfg.name``."""

    cfg: object
    solution: object
    traces: list = field(default_factory=list)
    fit: object = NO_TRACE  # a RateFit, or a Missing one: no trace, or one too short
    sweep: list = field(default_factory=list)
    friedrichs: float | None = None
    strongly_regular: bool | None = None
    verdicts: list = field(default_factory=list)
    generated: str = ""
    seconds: float | None = None  # the sweep's wall time: it varies run to run, so no report prints it

    @property
    def trace(self):
        """The first trace, or ``NO_TRACE`` when nothing was iterated."""
        return self.traces[0] if self.traces else NO_TRACE

    @property
    def exit_status(self):
        """0 when every verdict passes (or there are none), else 1."""
        return 0 if all(v.passed for v in self.verdicts) else 1

    def to_machine_dict(self):
        out = {
            "name": self.cfg.name,
            "sweep": self.sweep,
            "friedrichs_cos": self.friedrichs,
            "strongly_regular": self.strongly_regular,
            "verdicts": [asdict(v) for v in self.verdicts],
        }
        if isinstance(self.fit, RateFit):
            out["fit"] = asdict(self.fit)
        if self.traces:
            out["traces"] = [
                {
                    "stop_reason": t.stop_reason,
                    "iterations": len(t) - 1,
                    "final_dist_to_s": t.final_dist_to_s,
                }
                for t in self.traces
            ]
        return out

    def to_text(self):
        lines = [f"# generated: {self.generated}", f"experiment: {self.cfg.name}"]
        alg = self.cfg.algorithm
        if alg is not None:
            lines.append(f"algorithm: {alg.kind} (a={alg.a}, b={alg.b})")
        if self.strongly_regular is not None:
            lines.append(f"strongly regular at witness: {self.strongly_regular}")
        if self.friedrichs is not None:
            lines.append(f"friedrichs cosine: {self.friedrichs:.12f}")
        for entry in self.sweep:
            if "report" in entry:
                rep = entry["report"]
                lines.append(
                    "delta {delta:g}: eps_a={eps_a:.6f} eps_b={eps_b:.6f} "
                    "kappa={kappa:.4f} c={c:.6f} | predicted map/cycle={pm:.4f}{pmf} "
                    "dr/step={pd:.4f}{pdf}".format(
                        delta=entry["delta"],
                        eps_a=entry["eps_a"],
                        eps_b=entry["eps_b"],
                        kappa=entry["kappa"],
                        c=entry["c"],
                        pm=rep["predicted_rate_map"],
                        pmf="" if rep["map_certified"] else " (no guarantee)",
                        pd=rep["predicted_rate_dr"],
                        pdf="" if rep["dr_certified"] else " (no guarantee)",
                    )
                )
            elif "rank_regular" in entry:  # a subspace sweep pair
                line = ("seed {seed} dims {dims}: rank_regular={rank_regular} "
                        "converged_linearly={converged_linearly} final_dist={final_dist:.3e}")
                if "predicted" in entry:
                    line += " observed_rate={observed_rate:.6f} predicted={predicted:.6f}"
                lines.append(line.format(**entry))
            else:
                lines.append(
                    "delta {delta:g}: eps_sub={eps_sub:.6f} eps_pair={eps_pair:.6f}".format(**entry)
                )
        if isinstance(self.fit, RateFit):
            lines.append(
                f"rate fit: observed={self.fit.observed_rate:.6f} "
                f"r2={self.fit.r_squared:.4f} linear={self.fit.linear}"
            )
        for t in self.traces[:1]:
            lines.append(
                f"trace: {len(t) - 1} iterations, stop={t.stop_reason}, "
                f"final dist to solution={t.final_dist_to_s:.3e}"
            )
        if self.traces and len(self.traces) > 1:
            finals = [t.final_dist_to_s for t in self.traces]
            lines.append(
                f"starts: {len(self.traces)}, max final dist={max(finals):.3e}, "
                f"min final dist={min(finals):.3e}"
            )
        if self.verdicts:
            lines.append("verdicts:")
            for v in self.verdicts:
                status = "pass" if v.passed else "FAIL"
                lines.append(f"  [{status}] {v.claim_id}: measured={v.measured} vs {v.bound}")
        lines.append("--- machine ---")
        lines.append(json.dumps(self.to_machine_dict(), sort_keys=True))
        return "\n".join(lines) + "\n"


def _estimator_sweep(cfg, sol):
    """Per-delta raw constants plus the inflated rate report."""
    sweep = []
    pair = cfg.pair()
    n, seed = cfg.regularity.samples, cfg.regularity.seed
    for delta in cfg.regularity.deltas:
        if pair is None:
            s = next(iter(cfg.sets.values()))
            sweep.append({
                "delta": float(delta),
                "eps_sub": estimate_subregularity(s, sol, delta, n, seed),
                "eps_pair": estimate_pair_regularity(s, sol.witness, delta, n, seed),
            })
            continue
        a, b = pair
        eps_a = estimate_subregularity(a, sol, delta, n, seed)
        eps_b = estimate_subregularity(b, sol, delta, n, seed + 1)
        kappa = estimate_kappa(a, b, sol, delta, n, seed + 2)
        c = estimate_c(a, b, sol.witness, delta, n, seed + 3)
        report = predicted_rates(
            eps_a,
            eps_b,
            kappa,
            c,
            a_convex=a.is_convex(),
            b_convex=b.is_convex(),
            b_affine=b.is_affine(),
            delta=delta,
            inflation=SAFETY_INFLATION,
        )
        sweep.append(
            {
                "delta": float(delta),
                "eps_a": eps_a,
                "eps_b": eps_b,
                "kappa": kappa,
                "c": c,
                "report": report.to_dict(),
            }
        )
    return sweep


def run_experiment(cfg, out_dir=None, with_claims=True):
    """Execute one experiment end to end and return its ``ReportDocument``."""
    sol = cfg.solution_set()
    doc = ReportDocument(cfg=cfg, solution=sol, sweep=_estimator_sweep(cfg, sol))
    pair = cfg.pair()
    if pair is not None:
        a, b = pair
        if a.is_affine() and b.is_affine():
            doc.friedrichs = friedrichs_cosine(a, b)
        try:
            doc.strongly_regular = check_strong_regularity(a, b, sol.witness)
        except ValueError:
            doc.strongly_regular = None
        if cfg.start is not None:
            doc.traces = iterate_many(cfg.operator(), cfg.start.points(cfg.regularity.seed), sol,
                                      max_iters=cfg.budget.max_iters, tol=cfg.budget.tol)
            doc.fit = _fit(doc.trace)
    if with_claims:
        doc.verdicts = _preset_claims(doc)
    return _write(doc, out_dir)


def _write(doc, out_dir):
    """Stamp ``doc`` with the time, write the files its config's outputs name to ``out_dir``, return it.
    Each is unlinked first: on ext4, truncating a file written moments before stalls for a flush, for 0.1-0.4 s."""
    doc.generated = datetime.now(timezone.utc).isoformat()
    if out_dir is not None:
        out, outputs = Path(out_dir), doc.cfg.outputs
        out.mkdir(parents=True, exist_ok=True)
        if doc.traces and outputs.trace_csv:
            (out / outputs.trace_csv).unlink(missing_ok=True)
            trace_to_csv(doc.trace, out / outputs.trace_csv)
        if outputs.report:
            (out / outputs.report).unlink(missing_ok=True)
            (out / outputs.report).write_text(doc.to_text())
    return doc


# --------------------------------------------------------------------------
# claims: the named checks each built-in experiment must satisfy
# --------------------------------------------------------------------------


def _preset_claims(doc):
    """The verdicts of the preset ``doc.cfg`` is named after, from ``CLAIMS``
    at call time, if it keeps the preset's sets, algorithm and solution: the
    claims are statements about that geometry.  Its start, budget,
    regularity and outputs may differ."""
    cfg = doc.cfg
    if cfg.name not in CLAIMS:
        return []
    mine, theirs = cfg.to_dict(), preset(cfg.name).to_dict()
    same = all(mine.get(key) == theirs.get(key) for key in ("sets", "algorithm", "solution"))
    return CLAIMS[cfg.name](doc) if same else []


# Each claim kind builds its check and its bound text from the same numbers.
LINEAR_R2, LINEAR_RATE = 0.98, 0.99  # a linear rate fit's least r_squared and largest rate


def _claim(claim_id, x, check, bound, measured=None, detail=""):
    """The one ``Verdict`` builder: ``check(x)``, measured as ``measured(x)``
    (``x`` itself by default).  A ``Missing`` ``x`` reads FAIL, measured None,
    with its reason as the detail."""
    if isinstance(x, Missing):
        return Verdict(claim_id, False, None, bound, x.reason)
    return Verdict(claim_id, bool(check(x)), x if measured is None else measured(x), bound, detail)


def _num(x):
    """``x`` as a bound prints it: the shortest ``g`` form from six digits
    on that reads back as ``x``, with a bare exponent (``1e-9``, ``1e6``)."""
    text = next(t for p in range(6, 18) if float(t := f"{x:.{p}g}") == x)
    return text.replace("e-0", "e-").replace("e+0", "e").replace("e+", "e")


def _below(claim_id, x, limit, budget=None, detail=""):
    """``x < limit``; with a ``budget``, within that many iterations."""
    within = "" if budget is None else f" within {_num(budget)} iterations"
    return _claim(claim_id, x, lambda x: x < limit, f"< {_num(limit)}{within}", detail=detail)


def _near(claim_id, x, target, tol, name=None):
    """``|x - target| <= tol``; ``name`` prints the target."""
    return _claim(claim_id, x, lambda x: abs(x - target) <= tol, f"{name or _num(target)} +/- {_num(tol)}")


def _is(claim_id, value, want, name=None):
    """``value is want`` (True or False); ``name`` prints the value's name."""
    return _claim(claim_id, value, lambda v: v is want, f"{name} == {want}" if name else str(want))


def _all_converge(claim_id, doc, tol):
    """Every trace ends within ``tol`` of the solution set; no trace reads FAIL."""
    finals = [t.final_dist_to_s for t in doc.traces] or doc.trace
    bound = f"all {len(doc.traces)} starts < {_num(tol)}"
    return _claim(claim_id, finals, lambda f: all(d < tol for d in f), bound, max)


def _all_pass(claim_id, oks, bound):
    """Every check of ``oks`` passed, and there was one: measured ``passed/total``."""
    return _claim(claim_id, oks, lambda o: bool(o) and all(o), bound, lambda o: f"{sum(o)}/{len(o)}")


def _linear_fit(claim_id, fit):
    """The rate fit reads linear: ``r_squared >= LINEAR_R2`` and ``observed_rate <= LINEAR_RATE``."""
    return _claim(claim_id, fit, lambda f: f.r_squared >= LINEAR_R2 and f.observed_rate <= LINEAR_RATE,
                  f"r2 >= {_num(LINEAR_R2)} and rate <= {_num(LINEAR_RATE)}",
                  lambda f: (round(f.observed_rate, 6), round(f.r_squared, 6)))


def _claims_example_i(doc):
    return [
        _below("i-dr-tolerance", doc.trace.final_dist_to_s, 1e-10),
        _near("i-dr-step-rate", doc.fit.observed_rate, HALF_SQRT2, 0.01, "sqrt(2)/2"),
        _is("i-strongly-regular", doc.strongly_regular, True),
        _near("i-c-exact", doc.sweep[0]["c"], HALF_SQRT2, 1e-10, "sqrt(2)/2"),
    ]


def _claims_example_i_map(doc):
    return [
        _below("i-map-tolerance", doc.trace.final_dist_to_s, 1e-10),
        _near("i-map-cycle-rate", doc.fit.observed_rate, 0.5, 0.01),
    ]


def _claims_example_ii(doc):
    dist = 1.0
    return [
        _claim("ii-dr-fixed-off-intersection", doc.trace,
               lambda t: t.stop_reason == "stagnation" and abs(t.final_dist_to_s - dist) <= 1e-12,
               f"stagnation at distance {_num(dist)}", lambda t: (t.stop_reason, t.final_dist_to_s)),
        _is("ii-not-strongly-regular", doc.strongly_regular, False),
        _near("ii-friedrichs", doc.friedrichs, HALF_SQRT2, 1e-10, "sqrt(2)/2"),
    ]


def _claims_example_ii_inplane(doc):
    return [_near("ii-dr-inplane-rate", doc.fit.observed_rate, HALF_SQRT2, 0.01, "sqrt(2)/2")]


def _claims_example_iii(doc):
    cfg = doc.cfg
    a, b = cfg.pair()
    kappas = [
        estimate_kappa(a, b, doc.solution, 1.0, samples=n, seed=cfg.regularity.seed + 2)
        for n in (512, 1024, 2048)
    ]
    ratios = [kappas[i + 1] / kappas[i] for i in range(len(kappas) - 1)]
    n, least = cfg.budget.max_iters, 1.6
    return [
        # the iterates decay like 1/sqrt(n), so this target cannot be met
        # within the budget; kept as an honest record of the gap
        _below("iii-map-tolerance-within-budget", doc.trace.final_dist_to_s, 1e-6, n,
               detail=f"sublinear decay ~ n**-0.5 makes this unreachable in {_num(n)} iterations"),
        _is("iii-map-sublinear", doc.fit.linear, False, "linear"),
        _claim("iii-kappa-refinement-diverges", ratios, lambda rs: all(r >= least for r in rs),
               f"each refinement ratio >= {_num(least)}", lambda rs: [round(r, 3) for r in rs]),
    ]


def _claims_example_iii_dr(doc):
    worst, floor = max((t.final_dist_to_s for t in doc.traces), default=doc.trace), 0.01
    bound = f"> {_num(floor)} for at least one limit"
    return [_claim("iii-dr-fixed-point-off-intersection", worst, lambda w: w > floor, bound)]


def _claims_example_iv(doc):
    return [
        _near("iv-subregularity-zero", doc.sweep[0]["eps_a"], 0.0, 1e-9),
        _is("iv-strongly-regular", doc.strongly_regular, True),
        _all_converge("iv-dr-all-starts-converge", doc, 1e-8),
    ]


def _claims_example_iv_map(doc):
    return [_all_converge("iv-map-all-starts-converge", doc, 1e-8)]


def _claims_example_v(doc):
    rep = doc.sweep[-1]["report"]  # smallest delta of the sweep
    predicted = rep["predicted_rate_dr"]
    return [
        _linear_fit("v-dr-linear-fit", doc.fit),
        _claim("v-dr-bound-dominates", doc.fit.observed_rate, lambda x: x <= predicted,
               "observed <= predicted (inflated constants)", lambda x: (round(x, 6), round(predicted, 6)),
               detail=f"delta={doc.sweep[-1]['delta']}, certified={rep['dr_certified']}"),
    ]


def _claims_example_v_map(doc):
    return [_linear_fit("v-map-linear-fit", doc.fit)]


def _claims_kinked(doc):
    eps_pair, lo, hi = doc.sweep[0]["eps_pair"], 0.70, 0.7072
    normals = list(doc.cfg.sets["K"].normal_components(np.zeros((1, 2))))
    return [
        _claim("kink-pair-regularity-interval", eps_pair, lambda e: lo <= e <= hi, f"[{lo:.2f}, {_num(hi)}]"),
        _claim("kink-zero-proximal-cone", normals, lambda n: n == [], "zero cone at the corner"),
    ]


CLAIMS = {
    "example-i": _claims_example_i,
    "example-i-map": _claims_example_i_map,
    "example-ii": _claims_example_ii,
    "example-ii-inplane": _claims_example_ii_inplane,
    "example-iii": _claims_example_iii,
    "example-iii-dr": _claims_example_iii_dr,
    "example-iv": _claims_example_iv,
    "example-iv-map": _claims_example_iv_map,
    "example-v": _claims_example_v,
    "example-v-map": _claims_example_v_map,
    "kinked-regularity": _claims_kinked,
}


# --------------------------------------------------------------------------
# randomized subspace sweep
# --------------------------------------------------------------------------


SWEEP_DIM = 5           # the ambient dimension of the sweep's subspaces
SWEEP_PAIRS = 20        # random subspace pairs, every other one strongly regular
SWEEP_RATE_SLACK = 0.02  # observed DR rate may exceed the predicted one by this
SWEEP_SECONDS = 30.0    # wall time the whole sweep must stay under


def random_subspace_pair(seed, dims):
    rng = np.random.default_rng(seed)
    a = AffineSubspace.from_span(np.zeros(SWEEP_DIM), rng.normal(size=(dims[0], SWEEP_DIM)))
    b = AffineSubspace.from_span(np.zeros(SWEEP_DIM), rng.normal(size=(dims[1], SWEEP_DIM)))
    x0 = rng.normal(size=SWEEP_DIM)
    return a, b, x0


def sweep_config():
    """The subspace sweep's config.  Pair ``i`` draws from ``regularity.seed
    + i``, kappa takes ``regularity.samples`` samples within its first delta,
    and each pair's Douglas-Rachford run has the ``budget``.  It holds no
    sets: the sweep draws its own."""
    return ExperimentConfig(name="subspace-iff", sets={}, solution=None, budget=BudgetSpec(5000, 1e-9),
                            regularity=RegularitySpec((1.0,), 2048, 2025),
                            outputs=OutputSpec(report="subspace-iff.report.txt"))


def subspace_iff_sweep(cfg, out_dir=None):
    """Random subspace pairs in five dimensions, half built so the normal
    spaces meet nontrivially.  Checks that the reflection algorithm converges
    linearly to the intersection exactly when the exact rank test says the
    pair is strongly regular, and that observed rates stay below the
    predicted bound from the exact opposition constant and estimated modulus.
    Returns the ``ReportDocument`` of ``cfg`` (see ``sweep_config``), with
    one record per pair in its ``sweep``.
    """
    t0 = time.perf_counter()
    seed, delta, origin = cfg.regularity.seed, cfg.regularity.deltas[0], np.zeros(SWEEP_DIM)
    doc = ReportDocument(cfg=cfg, solution=None)
    matches = []
    bound_ok = []
    for idx in range(SWEEP_PAIRS):
        dims = (3, 3) if idx % 2 == 0 else (2, 2)  # strongly regular, or normals that meet
        a, b, x0 = random_subspace_pair(seed + idx, dims)
        sol = subspace_pair_solution(a, b, origin)
        rank_regular = check_strong_regularity(a, b, origin)
        trace = iterate(DouglasRachford(a, b), x0, sol, max_iters=cfg.budget.max_iters, tol=cfg.budget.tol)
        # a run cut off by the budget is judged by its fitted rate, like one
        # that reached tol: a rate close to 1 needs more than the budget's steps
        fit = _fit(trace) if trace.stop_reason in ("tolerance", "max_iters") else NO_TRACE
        linear = isinstance(fit, RateFit) and fit.linear
        matches.append(linear == rank_regular)
        record = {
            "seed": seed + idx,
            "dims": list(dims),
            "rank_regular": bool(rank_regular),
            "converged_linearly": bool(linear),
            "final_dist": trace.final_dist_to_s,
        }
        if isinstance(fit, RateFit) and rank_regular:
            c_exact = estimate_c(a, b, origin, delta)
            kappa = estimate_kappa(a, b, sol, delta, samples=cfg.regularity.samples, seed=seed + idx)
            # eps = 0 on subspaces; the exact c stays uninflated, the sampled kappa does not
            predicted = predicted_rates(0.0, 0.0, kappa * SAFETY_INFLATION, c_exact, a_convex=True,
                                        b_convex=True, b_affine=True, delta=delta).predicted_rate_dr
            bound_ok.append(fit.observed_rate <= predicted + SWEEP_RATE_SLACK)
            record.update(
                observed_rate=fit.observed_rate, c_exact=c_exact, kappa=kappa, predicted=predicted
            )
        doc.sweep.append(record)
    doc.seconds = time.perf_counter() - t0
    doc.verdicts = [
        _all_pass("subspace-iff-rank-test-match", matches,
                  "linear convergence to the intersection iff the exact rank test passes"),
        _all_pass("subspace-dr-rate-bound", bound_ok,
                  f"observed rate <= sqrt(1-(1-c)/({_num(SAFETY_INFLATION)}*kappa)^2) + {_num(SWEEP_RATE_SLACK)}"),
        _claim("subspace-sweep-runtime", doc.seconds < SWEEP_SECONDS, bool, f"< {_num(SWEEP_SECONDS)} s"),
    ]
    return _write(doc, out_dir)


# the suite's runs, in the order it runs them: every preset, then the subspace sweep
RUNS = (*PRESETS, "subspace-iff")


def run_suite(names=None, out_dir=None, samples=None, seed=None,
              max_iters=None, tol=None, echo=print):
    """Run the named runs of ``RUNS`` (default: all of them) one after
    another, each with the values given here in place of its config's own
    (``ExperimentConfig.with_overrides``, so each is range-checked), and
    aggregate verdicts; returns process exit status (0 pass, 1 failure).
    A preset runs through ``run_experiment``; the subspace sweep through
    ``subspace_iff_sweep``, with ``sweep_config()``.  Each writes its report
    into ``out_dir``.  A name not in ``RUNS`` is a ``ConfigError``.
    """
    for name in names or ():
        if name not in RUNS:  # before any run starts
            raise ConfigError("<suite>", f"unknown preset {name!r}")
    status = 0
    for name in names or RUNS:
        cfg, run = (preset(name), run_experiment) if name in PRESETS else (sweep_config(), subspace_iff_sweep)
        doc = run(cfg.with_overrides(samples=samples, seed=seed, max_iters=max_iters, tol=tol), out_dir)
        for v in doc.verdicts:
            mark = "pass" if v.passed else "FAIL"
            echo(f"[{mark}] {name} :: {v.claim_id} (measured={v.measured}, bound={v.bound})")
        if not doc.verdicts:
            echo(f"[pass] {name} :: no claims registered (report only)")
        status = max(status, doc.exit_status)
        del doc  # a record held through the next run raised the suite's peak RSS by about 2 MB
    return status
