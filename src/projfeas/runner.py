"""Experiment runner: estimators, iteration, verdicts, reports.

``run_experiment`` executes the estimator sweep and the configured algorithm,
writes the trace CSV and a report (human-readable text plus a machine JSON
section), and attaches pass/fail verdicts for the claims registered for the
experiment.  ``run_suite`` runs many experiments (plus the randomized
subspace sweep) and aggregates their verdicts into an exit status.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .driver import fit_rate, iterate, iterate_many, trace_to_csv
from .linalg import (  # noqa: F401  complement_basis: perfbench/tracing.py counts calls through it
    complement_basis,
    largest_principal_cosine,
)
from .operators import DouglasRachford
from .presets import PRESETS, SWEEPS, preset
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

HALF_SQRT2 = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class Verdict:
    claim_id: str
    passed: bool
    measured: object
    bound: str
    detail: str = ""

    def to_dict(self):
        measured = self.measured
        if isinstance(measured, (np.floating, float)):
            measured = float(measured)
        return {
            "claim_id": self.claim_id,
            "passed": bool(self.passed),
            "measured": measured,
            "bound": self.bound,
            "detail": self.detail,
        }


@dataclass
class RunArtifacts:
    cfg: object
    solution: object
    traces: list = field(default_factory=list)
    fit: object = None
    sweep: list = field(default_factory=list)
    friedrichs: float | None = None
    strongly_regular: bool | None = None


@dataclass
class ReportDocument:
    name: str
    generated: str
    artifacts: RunArtifacts
    verdicts: list

    @property
    def exit_status(self):
        return 0 if all(v.passed for v in self.verdicts) else 1

    def to_machine_dict(self):
        art = self.artifacts
        out = {
            "name": self.name,
            "sweep": art.sweep,
            "friedrichs_cos": art.friedrichs,
            "strongly_regular": art.strongly_regular,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }
        if art.fit is not None:
            out["fit"] = {
                "observed_rate": art.fit.observed_rate,
                "r_squared": art.fit.r_squared,
                "tail_start": art.fit.tail_start,
                "linear": art.fit.linear,
            }
        if art.traces:
            out["traces"] = [
                {
                    "stop_reason": t.stop_reason,
                    "iterations": len(t) - 1,
                    "final_dist_to_s": t.final_dist_to_s,
                }
                for t in art.traces
            ]
        return out

    def to_text(self):
        art = self.artifacts
        lines = [f"# generated: {self.generated}", f"experiment: {self.name}"]
        cfg = art.cfg
        if cfg is not None and cfg.algorithm is not None:
            lines.append(
                f"algorithm: {cfg.algorithm.kind} (a={cfg.algorithm.a}, b={cfg.algorithm.b})"
            )
        if art.strongly_regular is not None:
            lines.append(f"strongly regular at witness: {art.strongly_regular}")
        if art.friedrichs is not None:
            lines.append(f"friedrichs cosine: {art.friedrichs:.12f}")
        for entry in art.sweep:
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
            else:
                lines.append(
                    "delta {delta:g}: eps_sub={eps_sub:.6f} eps_pair={eps_pair:.6f}".format(**entry)
                )
        if art.fit is not None:
            lines.append(
                f"rate fit: observed={art.fit.observed_rate:.6f} "
                f"r2={art.fit.r_squared:.4f} linear={art.fit.linear}"
            )
        for t in art.traces[:1]:
            lines.append(
                f"trace: {len(t) - 1} iterations, stop={t.stop_reason}, "
                f"final dist to solution={t.final_dist_to_s:.3e}"
            )
        if art.traces and len(art.traces) > 1:
            finals = [t.final_dist_to_s for t in art.traces]
            lines.append(
                f"starts: {len(art.traces)}, max final dist={max(finals):.3e}, "
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


def run_experiment(cfg, out_dir=None, samples=None, seed=None, max_iters=None, tol=None,
                   with_claims=True):
    """Execute one experiment end to end and return its ``ReportDocument``."""
    cfg = cfg.with_overrides(samples=samples, seed=seed, max_iters=max_iters, tol=tol)
    sol = cfg.solution_set()
    art = RunArtifacts(cfg=cfg, solution=sol)
    art.sweep = _estimator_sweep(cfg, sol)
    pair = cfg.pair()
    if pair is not None:
        a, b = pair
        if isinstance(a, AffineSubspace) and isinstance(b, AffineSubspace):
            art.friedrichs = friedrichs_cosine(a.frame, b.frame)
        try:
            art.strongly_regular = check_strong_regularity(a, b, sol.witness)
        except ValueError:
            art.strongly_regular = None
        if cfg.start is not None:
            art.traces = iterate_many(cfg.operator(), cfg.start.points(cfg.regularity.seed), sol,
                                      max_iters=cfg.budget.max_iters, tol=cfg.budget.tol)
            try:
                art.fit = fit_rate(art.traces[0])
            except ValueError:
                art.fit = None
    verdicts = CLAIMS.get(cfg.name, lambda art: [])(art) if with_claims else []
    doc = ReportDocument(
        name=cfg.name,
        generated=datetime.now(timezone.utc).isoformat(),
        artifacts=art,
        verdicts=verdicts,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if art.traces and cfg.outputs.trace_csv:
            trace_to_csv(art.traces[0], out / cfg.outputs.trace_csv)
        if cfg.outputs.report:
            (out / cfg.outputs.report).write_text(doc.to_text())
    return doc


# --------------------------------------------------------------------------
# claims: the named checks each built-in experiment must satisfy
# --------------------------------------------------------------------------


def _v(claim_id, passed, measured, bound, detail=""):
    return Verdict(claim_id, bool(passed), measured, bound, detail)


# Each claim kind builds its check and its bound text from the same numbers.


def _num(x):
    """``x`` as a bound prints it: the shortest ``g`` form from six digits
    on that reads back as ``x``, with a bare exponent (``1e-9``, ``1e6``)."""
    text = next(t for p in range(6, 18) if float(t := f"{x:.{p}g}") == x)
    return text.replace("e-0", "e-").replace("e+0", "e").replace("e+", "e")


def _below(claim_id, x, limit, budget=None, detail=""):
    """``x < limit``; with a ``budget``, within that many iterations."""
    within = "" if budget is None else f" within {_num(budget)} iterations"
    return _v(claim_id, x < limit, x, f"< {_num(limit)}{within}", detail)


def _near(claim_id, x, target, tol, name=None):
    """``|x - target| <= tol``; ``name`` prints the target."""
    return _v(claim_id, abs(x - target) <= tol, x, f"{name or _num(target)} +/- {_num(tol)}")


def _is(claim_id, value, want, name=None):
    """``value is want`` (True or False); ``name`` prints the value's name."""
    return _v(claim_id, value is want, value, f"{name} == {want}" if name else str(want))


def _all_converge(claim_id, traces, tol):
    """Every trace ends within ``tol`` of the solution set."""
    finals = [t.final_dist_to_s for t in traces]
    bound = f"all {len(finals)} starts < {_num(tol)}"
    return _v(claim_id, all(d < tol for d in finals), max(finals), bound)


def _linear_fit(claim_id, fit, r2=0.98, rate=0.99):
    """The rate fit reads linear: ``r_squared >= r2`` and ``observed_rate <= rate``."""
    measured = (round(fit.observed_rate, 6), round(fit.r_squared, 6))
    return _v(claim_id, fit.r_squared >= r2 and fit.observed_rate <= rate, measured,
              f"r2 >= {_num(r2)} and rate <= {_num(rate)}")


def _claims_example_i(art):
    return [
        _below("i-dr-tolerance", art.traces[0].final_dist_to_s, 1e-10),
        _near("i-dr-step-rate", art.fit.observed_rate, HALF_SQRT2, 0.01, "sqrt(2)/2"),
        _is("i-strongly-regular", art.strongly_regular, True),
        _near("i-c-exact", art.sweep[0]["c"], HALF_SQRT2, 1e-10, "sqrt(2)/2"),
    ]


def _claims_example_i_map(art):
    return [
        _below("i-map-tolerance", art.traces[0].final_dist_to_s, 1e-10),
        _near("i-map-cycle-rate", art.fit.observed_rate, 0.5, 0.01),
    ]


def _claims_example_ii(art):
    t, dist = art.traces[0], 1.0
    stuck = t.stop_reason == "stagnation" and abs(t.final_dist_to_s - dist) <= 1e-12
    return [
        _v("ii-dr-fixed-off-intersection", stuck, (t.stop_reason, t.final_dist_to_s),
           f"stagnation at distance {_num(dist)}"),
        _is("ii-not-strongly-regular", art.strongly_regular, False),
        _near("ii-friedrichs", art.friedrichs, HALF_SQRT2, 1e-10, "sqrt(2)/2"),
    ]


def _claims_example_ii_inplane(art):
    return [_near("ii-dr-inplane-rate", art.fit.observed_rate, HALF_SQRT2, 0.01, "sqrt(2)/2")]


def _claims_example_iii(art):
    cfg = art.cfg
    a, b = cfg.pair()
    kappas = [
        estimate_kappa(a, b, art.solution, 1.0, samples=n, seed=cfg.regularity.seed + 2)
        for n in (512, 1024, 2048)
    ]
    ratios = [kappas[i + 1] / kappas[i] for i in range(len(kappas) - 1)]
    n, least = cfg.budget.max_iters, 1.6
    return [
        # the iterates decay like 1/sqrt(n), so this target cannot be met
        # within the budget; kept as an honest record of the gap
        _below("iii-map-tolerance-within-budget", art.traces[0].final_dist_to_s, 1e-6, n,
               detail=f"sublinear decay ~ n**-0.5 makes this unreachable in {_num(n)} iterations"),
        _is("iii-map-sublinear", art.fit.linear if art.fit else None, False, "linear"),
        _v("iii-kappa-refinement-diverges", all(r >= least for r in ratios), [round(r, 3) for r in ratios],
           f"each refinement ratio >= {_num(least)}"),
    ]


def _claims_example_iii_dr(art):
    worst, floor = max(t.final_dist_to_s for t in art.traces), 0.01
    bound = f"> {_num(floor)} for at least one limit"
    return [_v("iii-dr-fixed-point-off-intersection", worst > floor, worst, bound)]


def _claims_example_iv(art):
    return [
        _near("iv-subregularity-zero", art.sweep[0]["eps_a"], 0.0, 1e-9),
        _is("iv-strongly-regular", art.strongly_regular, True),
        _all_converge("iv-dr-all-starts-converge", art.traces, 1e-8),
    ]


def _claims_example_iv_map(art):
    return [_all_converge("iv-map-all-starts-converge", art.traces, 1e-8)]


def _claims_example_v(art):
    fit = art.fit
    rep = art.sweep[-1]["report"]  # smallest delta of the sweep
    return [
        _linear_fit("v-dr-linear-fit", fit),
        _v("v-dr-bound-dominates", fit.observed_rate <= rep["predicted_rate_dr"],
           (round(fit.observed_rate, 6), round(rep["predicted_rate_dr"], 6)),
           "observed <= predicted (inflated constants)",
           detail=f"delta={art.sweep[-1]['delta']}, certified={rep['dr_certified']}"),
    ]


def _claims_example_v_map(art):
    return [_linear_fit("v-map-linear-fit", art.fit)]


def _claims_kinked(art):
    from .sets import KinkedRegion

    eps_pair, lo, hi = art.sweep[0]["eps_pair"], 0.70, 0.7072
    normals = KinkedRegion().proximal_normals(np.zeros(2))
    return [
        _v("kink-pair-regularity-interval", lo <= eps_pair <= hi, eps_pair, f"[{lo:.2f}, {_num(hi)}]"),
        _v("kink-zero-proximal-cone", normals == [], normals, "zero cone at the corner"),
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


def random_subspace_pair(seed, dims, ambient=5):
    rng = np.random.default_rng(seed)
    a = AffineSubspace.from_span(np.zeros(ambient), rng.normal(size=(dims[0], ambient)))
    b = AffineSubspace.from_span(np.zeros(ambient), rng.normal(size=(dims[1], ambient)))
    x0 = rng.normal(size=ambient)
    return a, b, x0


SWEEP_PAIRS = 20        # random subspace pairs, every other one strongly regular
SWEEP_SAMPLES = 2048    # kappa's sample budget per strongly regular pair
SWEEP_MAX_ITERS = 5000  # Douglas-Rachford budget per pair: steps ...
SWEEP_TOL = 1e-9        # ... and the distance to the intersection that ends it
SWEEP_RATE_SLACK = 0.02  # observed DR rate may exceed the predicted one by this
SWEEP_SECONDS = 30.0    # wall time the whole sweep must stay under


def subspace_iff_sweep(base_seed=2025):
    """Random subspace pairs in five dimensions, half built so the normal
    spaces meet nontrivially.  Checks that the reflection algorithm converges
    linearly to the intersection exactly when the exact rank test says the
    pair is strongly regular, and that observed rates stay below the
    predicted bound from the exact opposition constant and estimated modulus.
    """
    t0 = time.perf_counter()
    matches = []
    bound_ok = []
    details = []
    for idx in range(SWEEP_PAIRS):
        regular_intended = idx % 2 == 0
        dims = (3, 3) if regular_intended else (2, 2)
        a, b, x0 = random_subspace_pair(base_seed + idx, dims)
        sol = subspace_pair_solution(a, b, np.zeros(5))
        rank_regular = check_strong_regularity(a, b, np.zeros(5))
        trace = iterate(DouglasRachford(a, b), x0, sol, max_iters=SWEEP_MAX_ITERS, tol=SWEEP_TOL)
        # a run cut off by the budget is judged by its fitted rate, like one
        # that reached tol: a rate close to 1 needs more than SWEEP_MAX_ITERS steps
        fitted = trace.stop_reason in ("tolerance", "max_iters")
        linear = False
        if fitted:
            fit = fit_rate(trace)
            linear = fit.linear
        matches.append(linear == rank_regular)
        detail = {
            "seed": base_seed + idx,
            "dims": list(dims),
            "rank_regular": bool(rank_regular),
            "converged_linearly": bool(linear),
            "final_dist": trace.final_dist_to_s,
        }
        if fitted and rank_regular:
            c_exact = largest_principal_cosine(a.normal_basis, b.normal_basis)
            kappa = estimate_kappa(a, b, sol, 1.0, samples=SWEEP_SAMPLES, seed=base_seed + idx)
            predicted = math.sqrt(max(1.0 - (1.0 - c_exact) / (kappa * SAFETY_INFLATION) ** 2, 0.0))
            ok = fit.observed_rate <= predicted + SWEEP_RATE_SLACK
            bound_ok.append(ok)
            detail.update(
                observed_rate=fit.observed_rate, c_exact=c_exact, kappa=kappa, predicted=predicted
            )
        details.append(detail)
    elapsed = time.perf_counter() - t0
    verdicts = [
        _v(
            "subspace-iff-rank-test-match",
            all(matches),
            f"{sum(matches)}/{len(matches)}",
            "linear convergence to the intersection iff the exact rank test passes",
        ),
        _v(
            "subspace-dr-rate-bound",
            bool(bound_ok) and all(bound_ok),
            f"{sum(bound_ok)}/{len(bound_ok)}",
            f"observed rate <= sqrt(1-(1-c)/({_num(SAFETY_INFLATION)}*kappa)^2) + {_num(SWEEP_RATE_SLACK)}",
        ),
        # the seconds vary from run to run, so they stay out of the measured
        # value that suite output and reports print
        _v("subspace-sweep-runtime", elapsed < SWEEP_SECONDS, elapsed < SWEEP_SECONDS,
           f"< {_num(SWEEP_SECONDS)} s", detail=f"{elapsed:.2f} s"),
    ]
    return verdicts, details


def _run_sweep_doc():
    verdicts, _ = subspace_iff_sweep()
    return ReportDocument(
        name="subspace-iff",
        generated=datetime.now(timezone.utc).isoformat(),
        artifacts=RunArtifacts(cfg=None, solution=None),
        verdicts=verdicts,
    )


def run_suite(names=None, out_dir=None, samples=None, seed=None,
              max_iters=None, tol=None, echo=print):
    """Run the named presets (default: all of them plus the subspace sweep)
    one after another and aggregate verdicts; returns process exit status
    (0 pass, 1 failure).
    """
    if not names:
        names = list(PRESETS) + list(SWEEPS)
    status = 0
    for name in names:
        if name in SWEEPS:
            doc = _run_sweep_doc()
        else:
            doc = run_experiment(
                preset(name), out_dir=out_dir, samples=samples, seed=seed,
                max_iters=max_iters, tol=tol,
            )
        for v in doc.verdicts:
            mark = "pass" if v.passed else "FAIL"
            echo(f"[{mark}] {doc.name} :: {v.claim_id} (measured={v.measured}, bound={v.bound})")
        if not doc.verdicts:
            echo(f"[pass] {doc.name} :: no claims registered (report only)")
        status = max(status, doc.exit_status)
    return status
