"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3's tolerance clause is checked against the closed form of
alternating projections on the tangent line/ball pair: from ``[1, 0]`` the
iterates satisfy ``dist_n = (n+1)**-0.5`` exactly, so the distance to the
intersection is ~1e-3 after 1e6 iterations, while the feasibility gap
``max(dist_A, dist_B) = sqrt(1 + 1/(n+1)) - 1`` drops below 1e-6 within the
budget, first at iteration 499,999.
"""

import math
import time

import numpy as np
import pytest

from conftest import preset_pairs
from kernel_reference import PointMap
from projfeas.driver import fit_rate, iterate, probe_fixed_points
from projfeas.linalg import row_norms
from projfeas.operators import (
    AlternatingProjections,
    DouglasRachford,
    check_step_energy_identity,
    dr_two_forms_agree,
)
from projfeas.presets import PRESETS, preset
from projfeas.regularity import (
    SAFETY_INFLATION,
    Region,
    check_strong_regularity,
    estimate_c,
    estimate_kappa,
    estimate_pair_regularity,
    estimate_subregularity,
    eps_tilde_douglas_rachford,
    eps_tilde_projector,
    eps_tilde_reflector,
    friedrichs_cosine,
    predicted_rates,
)
from projfeas.runner import random_subspace_pair, run_experiment, subspace_iff_sweep
from projfeas.sampling import ball_points
from projfeas.sets import AffineSubspace, KinkedRegion
from projfeas.solution import subspace_pair_solution

HALF_SQRT2 = math.sqrt(2.0) / 2.0


def _report(criterion, ok, detail):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: two lines in the plane
# ---------------------------------------------------------------------------


def test_criterion_1_two_lines_rates(lines2):
    a, b, sol = lines2
    t0 = time.perf_counter()
    tr_map = iterate(AlternatingProjections(a, b), [1.0, 0.0], sol, max_iters=500, tol=1e-10)
    fit_map = fit_rate(tr_map)
    tr_dr = iterate(DouglasRachford(a, b), [1.0, 0.0], sol, max_iters=500, tol=1e-10)
    fit_dr = fit_rate(tr_dr)
    elapsed = time.perf_counter() - t0
    ok = (
        tr_map.final_dist_to_s < 1e-10
        and abs(fit_map.observed_rate - 0.5) <= 0.01
        and tr_dr.final_dist_to_s < 1e-10
        and abs(fit_dr.observed_rate - HALF_SQRT2) <= 0.01
        and elapsed < 1.0
    )
    _report(
        "criterion 1",
        ok,
        f"map rate {fit_map.observed_rate:.4f} (want 0.5), dr rate "
        f"{fit_dr.observed_rate:.4f} (want {HALF_SQRT2:.4f}), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: the same lines in three dimensions
# ---------------------------------------------------------------------------


def test_criterion_2_embedded_lines(lines3):
    a, b, sol = lines3
    op = DouglasRachford(a, b)
    stuck = iterate(op, [0.0, 0.0, 1.0], sol, max_iters=200, tol=1e-10)
    rates = []
    for x0 in ([1.0, 0.5, 0.0], [-0.3, 0.8, 0.0]):  # starts in the span of the pair
        tr = iterate(op, x0, sol, max_iters=300, tol=1e-11)
        rates.append(fit_rate(tr).observed_rate)
    strong = check_strong_regularity(a, b, [0.0, 0.0, 0.0])
    cf = friedrichs_cosine(a, b)
    ok = (
        stuck.stop_reason == "stagnation"
        and abs(stuck.final_dist_to_s - 1.0) <= 1e-12
        and all(abs(r - HALF_SQRT2) <= 0.01 for r in rates)
        and strong is False
        and abs(cf - HALF_SQRT2) <= 1e-10
    )
    _report(
        "criterion 2",
        ok,
        f"stagnation dist {stuck.final_dist_to_s}, in-span rates {np.round(rates, 4)}, "
        f"strong {strong}, friedrichs {cf:.12f}",
    )


# ---------------------------------------------------------------------------
# criterion 3: tangent line and ball
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tangency_long_run():
    """The example-iii preset at its defaults: 1e6 MAP steps from ``[1, 0]``,
    run once for criterion 3 and for the preset's verdicts."""
    return run_experiment(preset("example-iii"))


def test_criterion_3_map_tolerance_within_budget(tangency_long_run):
    # Without regularity at the tangency MAP converges sublinearly: each cycle
    # adds one to 1/dist**2, so dist_n = (n+1)**-0.5 and the iterate cannot
    # come within 1e-6 of the intersection in 1e6 steps (that needs ~1e12).
    # What the budget does reach is a feasibility gap below 1e-6: the iterates
    # stay on the line, at distance sqrt(1 + 1/(n+1)) - 1 from the ball.
    trace = tangency_long_run.trace
    max_iters, tol = 1_000_000, 1e-6  # the fixture's budget and tolerance
    n = np.arange(len(trace), dtype=float)
    rel_err = float(np.max(np.abs(trace.dist_to_s * np.sqrt(n + 1.0) - 1.0)))
    inv = 1.0 / (n + 1.0)
    closed_gap = inv / (np.sqrt(1.0 + inv) + 1.0)  # sqrt(1 + inv) - 1 without cancellation
    gap_below = np.maximum(trace.dist_to_a, trace.dist_to_b) < tol
    first = int(np.argmax(gap_below)) if gap_below.any() else None
    predicted = int(np.argmax(closed_gap < tol))
    stays_below = bool(gap_below[predicted:].all())
    ok = (
        trace.stop_reason == "max_iters"
        and len(trace) - 1 == max_iters
        and rel_err <= 1e-9
        and first == predicted
        and stays_below
    )
    _report(
        "criterion 3 (tolerance clause)",
        ok,
        f"stopped on {trace.stop_reason} after {len(trace) - 1} iterations "
        f"(want max_iters after {max_iters}); worst relative error of dist_S against "
        f"(n+1)**-0.5 {rel_err:.2e} (want <= 1e-9); gap max(dist_A, dist_B) < {tol:g} "
        f"first at iteration {first} (closed form {predicted}), stays below {stays_below}",
    )


def test_criterion_3_map_sublinear(tangency_long_run):
    trace = tangency_long_run.trace
    fit = fit_rate(trace)
    _report(
        "criterion 3 (sublinearity)",
        fit.linear is False,
        f"linear={fit.linear}, fitted rate {fit.observed_rate:.8f}",
    )


def test_criterion_3_dr_fixed_points_off_intersection(line_ball):
    line, ball, sol = line_ball
    op = DouglasRachford(ball, line)  # reflect across the line first
    res = probe_fixed_points(op, Region(np.array([0.0, 1.0]), 1.5), 32, 7, sol,
                             max_iters=3000, tol=1e-9)
    worst = max(d for _, d in res.limits)
    _report("criterion 3 (spurious fixed points)", worst > 0.01,
            f"largest limit distance {worst:.4f}")


def test_criterion_3_kappa_divergence(line_ball):
    line, ball, sol = line_ball
    vals = [estimate_kappa(line, ball, sol, 1.0, samples=n, seed=5) for n in (512, 1024, 2048)]
    ratios = [vals[i + 1] / vals[i] for i in range(2)]
    _report(
        "criterion 3 (kappa divergence)",
        all(r >= 1.6 for r in ratios),
        f"kappa {np.round(vals, 1)} ratios {np.round(ratios, 3)}",
    )


# ---------------------------------------------------------------------------
# criterion 4: cross and diagonal
# ---------------------------------------------------------------------------


def test_criterion_4_cross_and_diagonal(cross_diag):
    cross, diag, sol = cross_diag
    eps = estimate_subregularity(cross, sol, 1.0, samples=2048, seed=0)
    strong = check_strong_regularity(cross, diag, [0.0, 0.0])
    starts = ball_points(np.zeros(2), 1.0, 120, seed=42)[1:101]
    assert starts.shape[0] == 100
    finals = []
    for algo in (AlternatingProjections(cross, diag), DouglasRachford(cross, diag)):
        for x0 in starts:
            finals.append(iterate(algo, x0, sol, max_iters=300, tol=1e-8).final_dist_to_s)
    ok = eps <= 1e-9 and strong is True and all(d < 1e-8 for d in finals)
    _report(
        "criterion 4",
        ok,
        f"eps {eps:.2e}, strong {strong}, worst of {len(finals)} runs {max(finals):.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 5: circle and line
# ---------------------------------------------------------------------------


def test_criterion_5_circle_line(circle_line):
    circle, line, sol = circle_line
    w = sol.witness
    x0 = w + np.array([0.05, 0.05])
    assert np.linalg.norm(x0 - w) <= 0.1
    tr_map = iterate(AlternatingProjections(circle, line), x0, sol, max_iters=400, tol=1e-13)
    tr_dr = iterate(DouglasRachford(circle, line), x0, sol, max_iters=400, tol=1e-13)
    f_map = fit_rate(tr_map)
    f_dr = fit_rate(tr_dr)
    delta = 0.025
    eps_a = estimate_subregularity(circle, sol, delta, samples=2048, seed=2)
    eps_b = estimate_subregularity(line, sol, delta, samples=2048, seed=2)
    kappa = estimate_kappa(circle, line, sol, delta, samples=2048, seed=2)
    c = estimate_c(circle, line, w, delta, samples=2048, seed=2)
    rep = predicted_rates(
        eps_a, eps_b, kappa, c,
        a_convex=False, b_convex=True, b_affine=True,
        delta=delta, inflation=SAFETY_INFLATION,
    )
    ok = (
        f_map.r_squared >= 0.98
        and f_map.observed_rate <= 0.99
        and f_dr.r_squared >= 0.98
        and f_dr.observed_rate <= 0.99
        and f_dr.observed_rate <= rep.predicted_rate_dr
    )
    _report(
        "criterion 5",
        ok,
        f"map rate {f_map.observed_rate:.4f} (r2 {f_map.r_squared:.4f}), "
        f"dr rate {f_dr.observed_rate:.4f} <= predicted {rep.predicted_rate_dr:.4f} "
        f"(certified={rep.dr_certified})",
    )


# ---------------------------------------------------------------------------
# criterion 6: the kinked region
# ---------------------------------------------------------------------------


def test_criterion_6_kinked_region():
    k = KinkedRegion()
    eps_pair = estimate_pair_regularity(k, [0.0, 0.0], 1.0, samples=4096, seed=0)
    normals = k.proximal_normals([0.0, 0.0])
    ok = 0.70 <= eps_pair <= 0.7072 and normals == []
    _report("criterion 6", ok, f"pair constant {eps_pair:.6f}, corner cone {normals}")


# ---------------------------------------------------------------------------
# criterion 7: identity suite
# ---------------------------------------------------------------------------


def test_criterion_7_identity_suite():
    rng = np.random.default_rng(77)
    pairs = preset_pairs()
    worst_identity = 0.0
    all_agree = True
    per_geometry = 1000 // len(pairs)
    for name, a, b, sol in pairs:
        Z = sol.witness + rng.normal(size=(per_geometry, 2, a.dim))  # rows x, y of each pair
        X, Y = Z[:, 0], Z[:, 1]
        scale = np.maximum(1.0, np.maximum(row_norms(X) ** 2, row_norms(Y) ** 2))
        worst_identity = max(worst_identity, float(np.max(check_step_energy_identity(a, b, X, Y) / scale)))
        all_agree &= bool(dr_two_forms_agree(a, b, X).all())
    worst_affine = 0.0
    affine_sets = [s for _, a, b, _ in pairs for s in (a, b) if isinstance(s, AffineSubspace)]
    for _ in range(1000):
        s = affine_sets[rng.integers(len(affine_sets))]
        x = rng.normal(size=s.dim) * 2
        y = rng.normal(size=s.dim) * 2
        px = s.project(x).selected
        py = s.project(y).selected
        lhs = np.linalg.norm(px - py) ** 2 + np.linalg.norm((x - px) - (y - py)) ** 2
        scale = max(1.0, np.linalg.norm(x - y) ** 2)
        worst_affine = max(worst_affine, abs(lhs - np.linalg.norm(x - y) ** 2) / scale)
    ok = worst_identity <= 1e-9 and all_agree and worst_affine <= 1e-9
    _report(
        "criterion 7",
        ok,
        f"identity residual {worst_identity:.2e}, forms agree {all_agree}, "
        f"affine equality residual {worst_affine:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 8: inequality suite
# ---------------------------------------------------------------------------


def test_criterion_8_inequality_suite():
    rng = np.random.default_rng(88)
    deltas = {
        "two-lines-2d": 1.0,
        "two-lines-3d": 1.0,
        "ball-line": 1.0,
        "cross-diagonal": 1.0,
        "circle-line": 0.05,
    }
    worst = {"projector": -np.inf, "reflector": -np.inf, "dr": -np.inf, "transfer": -np.inf}
    for name, a, b, sol in preset_pairs():
        delta = deltas[name]
        witness = sol.witness
        eps_a = SAFETY_INFLATION * estimate_subregularity(a, sol, delta, samples=1024, seed=1)
        eps_b = SAFETY_INFLATION * estimate_subregularity(b, sol, delta, samples=1024, seed=2)
        kappa = estimate_kappa(a, b, sol, delta, samples=1024, seed=3)
        c_est = estimate_c(a, b, witness, delta, samples=512, seed=4)
        lam = math.sqrt(max(1.0 - c_est, 0.0)) / kappa
        lim_dr = 1.0 + eps_tilde_douglas_rachford(eps_a, eps_b)
        xbar = witness
        for _ in range(1000):
            step = rng.normal(size=a.dim)
            x = witness + step * (delta / 2) / max(np.linalg.norm(step), 1e-12) * rng.uniform()
            scale = max(1.0, np.linalg.norm(x - xbar) ** 2)
            # projector / reflector inequalities for both sets
            for s, eps in ((a, eps_a), (b, eps_b)):
                out = s.project(x)
                if any(np.linalg.norm(p - witness) > delta for p in out.branches):
                    continue
                lim_p = 1.0 + eps_tilde_projector(eps)
                lim_r = 1.0 + eps_tilde_reflector(eps)
                for p in out.branches:
                    lhs = np.linalg.norm(p - xbar) ** 2 + np.linalg.norm(x - p) ** 2
                    worst["projector"] = max(
                        worst["projector"], (lhs - lim_p * np.linalg.norm(x - xbar) ** 2) / scale
                    )
                    r = 2.0 * p - x
                    worst["reflector"] = max(
                        worst["reflector"],
                        (np.linalg.norm(r - xbar) ** 2 - lim_r * np.linalg.norm(x - xbar) ** 2)
                        / scale,
                    )
            # composed reflection step, all branch combinations
            zs = b.project(x).branches
            admissible = all(np.linalg.norm(z - witness) <= delta for z in zs)
            branch_pairs = []
            for z in zs:
                ws = a.project(2.0 * z - x).branches
                admissible &= all(np.linalg.norm(v - witness) <= delta for v in ws)
                branch_pairs.extend((z, v) for v in ws)
            if not admissible:
                continue
            d_x = sol.distance(x)
            for z, v in branch_pairs:
                xp = v - z + x
                lhs = np.linalg.norm(xp - xbar) ** 2 + np.linalg.norm(x - xp) ** 2
                worst["dr"] = max(
                    worst["dr"], (lhs - lim_dr * np.linalg.norm(x - xbar) ** 2) / scale
                )
                # contraction transfer wherever its two hypotheses hold
                firm = lhs <= lim_dr * np.linalg.norm(x - xbar) ** 2 + 1e-12
                coercive = np.linalg.norm(x - xp) >= lam * d_x - 1e-12
                if firm and coercive and d_x > 1e-12:
                    target = (1.0 + (lim_dr - 1.0) - lam**2) * d_x**2
                    worst["transfer"] = max(
                        worst["transfer"], (sol.distance(xp) ** 2 - target) / scale
                    )
    ok = all(v <= 1e-9 for v in worst.values())
    _report(
        "criterion 8",
        ok,
        "worst margins " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


# ---------------------------------------------------------------------------
# criterion 9: random subspace sweep
# ---------------------------------------------------------------------------


def test_criterion_9_subspace_sweep():
    t0 = time.perf_counter()
    verdicts, details = subspace_iff_sweep()
    elapsed = time.perf_counter() - t0
    by_id = {v.claim_id: v for v in verdicts}
    ok = (
        by_id["subspace-iff-rank-test-match"].passed
        and by_id["subspace-dr-rate-bound"].passed
        and elapsed < 30.0
    )
    _report(
        "criterion 9",
        ok,
        f"matches {by_id['subspace-iff-rank-test-match'].measured}, "
        f"bounds {by_id['subspace-dr-rate-bound'].measured}, {elapsed:.1f}s",
    )


def test_subspace_sweep_verdicts_repeat():
    # suite output prints claim, pass/fail, measured value and bound; the
    # sweep's seconds go to the runtime verdict's detail, which it does not print
    def printed(verdicts):
        return [(v.claim_id, v.passed, v.measured, v.bound) for v in verdicts]

    first, _ = subspace_iff_sweep()
    second, _ = subspace_iff_sweep()
    assert printed(first) == printed(second)
    runtime = {v.claim_id: v for v in first}["subspace-sweep-runtime"]
    assert runtime.passed and runtime.measured is True and runtime.detail.endswith(" s")


def test_criterion_9_budget_stop_judged_by_rate():
    # the strongly regular 3+3 pair of base seed 52834893 contracts at its
    # Friedrichs cosine 0.9959 per step and needs ~5,300 steps to reach tol,
    # so it stops on the sweep's max_iters=5000 while converging linearly
    base_seed = 52834893
    a, b, x0 = random_subspace_pair(base_seed, (3, 3))
    sol = subspace_pair_solution(a, b, np.zeros(5))
    trace = iterate(DouglasRachford(a, b), x0, sol, max_iters=5000, tol=1e-9)
    verdicts, details = subspace_iff_sweep(base_seed=base_seed)
    by_id = {v.claim_id: v for v in verdicts}
    rate_error = abs(details[0]["observed_rate"] - friedrichs_cosine(a, b))
    ok = (
        trace.stop_reason == "max_iters"
        and details[0]["converged_linearly"]
        and rate_error <= 1e-9
        and by_id["subspace-iff-rank-test-match"].measured == "20/20"
        and by_id["subspace-dr-rate-bound"].passed
    )
    _report(
        "criterion 9 (budget stop)",
        ok,
        f"stop {trace.stop_reason} at dist {trace.final_dist_to_s:.2e}, "
        f"|rate - cF| {rate_error:.1e}, matches {by_id['subspace-iff-rank-test-match'].measured}, "
        f"bounds {by_id['subspace-dr-rate-bound'].measured}",
    )


# ---------------------------------------------------------------------------
# criterion 10: convex combinations
# ---------------------------------------------------------------------------


def test_criterion_10_convex_combination(cross_diag):
    cross, diag, sol = cross_diag
    eps1 = SAFETY_INFLATION * estimate_subregularity(cross, sol, 1.0, samples=1024, seed=0)
    eps2 = SAFETY_INFLATION * estimate_subregularity(diag, sol, 1.0, samples=1024, seed=0)
    eps = max(eps1, eps2)
    rng = np.random.default_rng(10)
    worst = -np.inf
    for lam in (0.25, 0.5, 0.75):
        comb = PointMap(2, lambda x, P: lam * P(cross, x) + (1 - lam) * P(diag, x))
        for _ in range(1000):
            x = rng.normal(size=2) * 1.5
            xp = comb.step(x)
            scale = max(1.0, np.linalg.norm(x) ** 2)
            lhs = np.linalg.norm(xp) ** 2 + np.linalg.norm(x - xp) ** 2
            worst = max(worst, (lhs - (1 + eps) * np.linalg.norm(x) ** 2) / scale)
    _report("criterion 10", worst <= 1e-9, f"worst margin {worst:.2e} at eps {eps:.2e}")


# ---------------------------------------------------------------------------
# every preset's verdicts at its default settings
# ---------------------------------------------------------------------------

# each preset's claims, in order, and whether each passes; the one FAIL is
# criterion 3's unreachable tolerance target
PRESET_VERDICTS = {
    "example-i": {"i-dr-tolerance": True, "i-dr-step-rate": True, "i-strongly-regular": True,
                  "i-c-exact": True},
    "example-i-map": {"i-map-tolerance": True, "i-map-cycle-rate": True},
    "example-ii": {"ii-dr-fixed-off-intersection": True, "ii-not-strongly-regular": True,
                   "ii-friedrichs": True},
    "example-ii-inplane": {"ii-dr-inplane-rate": True},
    "example-iii": {"iii-map-tolerance-within-budget": False, "iii-map-sublinear": True,
                    "iii-kappa-refinement-diverges": True},
    "example-iii-dr": {"iii-dr-fixed-point-off-intersection": True},
    "example-iv": {"iv-subregularity-zero": True, "iv-strongly-regular": True,
                   "iv-dr-all-starts-converge": True},
    "example-iv-map": {"iv-map-all-starts-converge": True},
    "example-v": {"v-dr-linear-fit": True, "v-dr-bound-dominates": True},
    "example-v-map": {"v-map-linear-fit": True},
    "kinked-regularity": {"kink-pair-regularity-interval": True, "kink-zero-proximal-cone": True},
}


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_verdicts_at_defaults(name, request):
    # example-iii's verdicts read the 1e6-step run that criterion 3 checks
    doc = request.getfixturevalue("tangency_long_run") if name == "example-iii" else run_experiment(preset(name))
    got = [(v.claim_id, v.passed) for v in doc.verdicts]
    assert got == list(PRESET_VERDICTS[name].items()), [(v.claim_id, v.measured, v.bound) for v in doc.verdicts]
