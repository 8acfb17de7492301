import math

import numpy as np
import pytest

from projfeas.linalg import complement_basis, largest_principal_cosine, orthonormalize, subspace_intersection
from projfeas.presets import circle_and_line
from projfeas.regularity import (
    Region,
    _largest_cosine,
    check_strong_regularity,
    estimate_c,
    estimate_kappa,
    estimate_pair_regularity,
    estimate_subregularity,
    friedrichs_cosine,
    predicted_rates,
    verify_coercivity,
)
from projfeas.runner import random_subspace_pair
from projfeas.sets import AffineSubspace, Ball, KinkedRegion, UnionOfSubspaces
from projfeas.solution import SolutionSet, subspace_pair_solution

from kernel_reference import PointMap, ref_friedrichs_cosine, ref_sol_distance, ref_step

HALF_SQRT2 = math.sqrt(2.0) / 2.0


# ---------------------------------------------------------------------------
# subregularity / pair regularity
# ---------------------------------------------------------------------------


def test_cross_subregular_constant_zero(cross_diag):
    cross, diag, sol = cross_diag
    eps = estimate_subregularity(cross, sol, 1.0, samples=1024, seed=0)
    assert eps <= 1e-9


def test_kink_subregular_constant_zero():
    k = KinkedRegion()
    sol = SolutionSet((k,), [0.0, 0.0])
    assert estimate_subregularity(k, sol, 1.0, samples=1024, seed=0) <= 1e-9


def test_ball_subregular_constant_zero(line_ball):
    line, ball, sol = line_ball
    assert estimate_subregularity(ball, sol, 1.0, samples=1024, seed=0) <= 1e-9


def test_affine_pair_regularity_zero():
    line = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    assert estimate_pair_regularity(line, [0.0, 0.0], 1.0, samples=512, seed=0) <= 1e-9


def oracle_pair_regularity_cross(ts):
    """Brute force over (x, xbar, v) triples on the two axes."""
    best = 0.0
    for t in ts:  # x on the horizontal arm, normal +/- e2
        x = np.array([t, 0.0])
        for s in ts:
            for xbar in (np.array([0.0, s]), np.array([0.0, -s]), np.array([s, 0.0])):
                d = np.linalg.norm(xbar - x)
                if d < 1e-14:
                    continue
                best = max(best, abs((xbar - x)[1]) / d)
    return best


def test_cross_pair_regularity_approaches_one():
    cross = UnionOfSubspaces.cross(2)
    ts = np.geomspace(1e-4, 1.0, 25)
    oracle = oracle_pair_regularity_cross(ts)
    assert oracle >= 0.999  # the supremum tends to 1
    est = estimate_pair_regularity(cross, [0.0, 0.0], 1.0, samples=2048, seed=1)
    assert est >= 0.999
    assert est <= 1.0


def test_kink_pair_regularity_interval():
    eps = estimate_pair_regularity(KinkedRegion(), [0.0, 0.0], 1.0, samples=4096, seed=0)
    assert 0.70 <= eps <= 0.7072


def test_estimator_monotonic_in_samples():
    k = KinkedRegion()
    vals = [
        estimate_pair_regularity(k, [0.0, 0.0], 1.0, samples=n, seed=3)
        for n in (256, 512, 1024, 2048)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_subregularity_no_samples_error():
    circle, line = circle_and_line()
    sol = SolutionSet((line,), [5.0, HALF_SQRT2])
    # a ball far from the circle contains no circle points
    with pytest.raises(ValueError):
        estimate_subregularity(circle, sol, 0.5, samples=128, seed=0)


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


def oracle_kappa_grid(a, b, sol, delta, n=201):
    xs = np.linspace(-delta, delta, n)
    best = 0.0
    for px in xs:
        for py in xs:
            x = np.array([px, py])
            if np.linalg.norm(x - sol.witness) > delta:
                continue
            gap = max(a.distance_many(x[None])[0], b.distance_many(x[None])[0])
            if gap <= 1e-12:
                continue
            best = max(best, sol.distance(x) / gap)
    return best


def test_kappa_two_lines_against_grid_oracle(lines2):
    a, b, sol = lines2
    oracle = oracle_kappa_grid(a, b, sol, 1.0)
    est = estimate_kappa(a, b, sol, 1.0, samples=2048, seed=3)
    # worst case on the first line alone gives sqrt(2); the true modulus,
    # attained on the bisector, is 1/sin(pi/8)
    assert est >= math.sqrt(2) - 1e-6
    assert oracle <= est + 0.05
    assert est <= 1.0 / math.sin(math.pi / 8) + 1e-6


def test_kappa_identical_sets_is_one():
    line = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    sol = SolutionSet((line, line), np.zeros(2), exact=line)
    assert estimate_kappa(line, line, sol, 1.0, samples=512, seed=0) == pytest.approx(1.0)


def test_kappa_is_zero_when_every_sample_lies_in_both_sets():
    # a ball inside another: no sample has a gap, so the supremum is over no ratio
    inner, outer = Ball(np.zeros(2), 2.0), Ball(np.zeros(2), 3.0)
    sol = SolutionSet((inner, outer), np.zeros(2), exact=inner)
    assert estimate_kappa(inner, outer, sol, 0.5, samples=256, seed=0) == 0.0


def test_kappa_diverges_at_tangency(line_ball):
    line, ball, sol = line_ball
    vals = [estimate_kappa(line, ball, sol, 1.0, samples=n, seed=5) for n in (512, 1024, 2048)]
    assert vals[1] / vals[0] >= 1.6
    assert vals[2] / vals[1] >= 1.6


def test_kappa_below_closed_form_on_sweep_pairs():
    # for two linear subspaces the modulus is 1/sin(theta_F/2), theta_F the
    # Friedrichs angle; a sampled supremum can only approach it from below
    regular = 0
    for idx in range(0, 20, 2):  # the intended-regular pairs of the sweep
        a, b, _ = random_subspace_pair(2025 + idx, (3, 3))
        if not check_strong_regularity(a, b, np.zeros(5)):
            continue
        regular += 1
        sol = subspace_pair_solution(a, b, np.zeros(5))
        cos_f = friedrichs_cosine(a, b)
        exact = 1.0 / math.sqrt((1.0 - cos_f) / 2.0)
        for n in (1024, 2048, 4096):
            kappa = estimate_kappa(a, b, sol, 1.0, samples=n, seed=2025 + idx)
            assert kappa <= exact, (idx, n, kappa, exact)
    assert regular == 10


def test_kappa_lower_bound_property(lines2):
    a, b, sol = lines2
    small = estimate_kappa(a, b, sol, 1.0, samples=256, seed=9)
    large = estimate_kappa(a, b, sol, 1.0, samples=1024, seed=9)
    assert small <= large + 1e-15


# ---------------------------------------------------------------------------
# c and strong regularity
# ---------------------------------------------------------------------------


def test_c_two_lines_exact(lines2):
    a, b, _ = lines2
    assert estimate_c(a, b, [0.0, 0.0], 1.0) == pytest.approx(HALF_SQRT2, abs=1e-12)


def test_c_orthogonal_axes_zero():
    x_axis = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    y_axis = AffineSubspace.from_span([0.0, 0.0], [[0.0, 1.0]])
    assert estimate_c(x_axis, y_axis, [0.0, 0.0], 1.0) == pytest.approx(0.0, abs=1e-12)


def test_c_identical_lines_in_3d_is_one():
    a = AffineSubspace.from_span([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]])
    b = AffineSubspace.from_span([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]])
    assert estimate_c(a, b, [0.0, 0.0, 0.0], 1.0) == pytest.approx(1.0, abs=1e-12)


def test_c_sampled_vs_exact_on_subspaces(lines2):
    # the sampled path (forced by monkey-type dispatch on a non-affine pair)
    # stays below the exact singular-value constant and approaches it
    a, b, _ = lines2
    exact = estimate_c(a, b, [0.0, 0.0], 1.0)
    # same geometry via sampled normals: use the cross containing both lines
    cross = UnionOfSubspaces((a, b))
    sampled = estimate_c(cross, b, [0.0, 0.0], 1.0, samples=512, seed=0)
    assert sampled <= 1.0 + 1e-12
    assert sampled >= exact - 1e-9  # the opposing-arm pair realizes it


def test_strong_regularity_on_presets(lines2, lines3, line_ball, cross_diag, circle_line):
    a1, b1, _ = lines2
    assert check_strong_regularity(a1, b1, [0.0, 0.0]) is True
    a2, b2, _ = lines3
    assert check_strong_regularity(a2, b2, [0.0, 0.0, 0.0]) is False
    line, ball, _ = line_ball
    assert check_strong_regularity(line, ball, [0.0, 0.0]) is False
    cross, diag, _ = cross_diag
    assert check_strong_regularity(cross, diag, [0.0, 0.0]) is True
    circle, hline, _ = circle_line
    assert check_strong_regularity(circle, hline, [HALF_SQRT2, HALF_SQRT2]) is True


def test_strong_regularity_requires_membership(lines2):
    a, b, _ = lines2
    with pytest.raises(ValueError):
        check_strong_regularity(a, b, [1.0, 1.0])


# ---------------------------------------------------------------------------
# friedrichs cosine
# ---------------------------------------------------------------------------


def test_friedrichs_two_lines(lines2):
    a, b, _ = lines2
    assert friedrichs_cosine(a, b) == pytest.approx(HALF_SQRT2, abs=1e-12)


def test_friedrichs_orthogonal_axes():
    x_axis = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    y_axis = AffineSubspace.from_span([0.0, 0.0], [[0.0, 1.0]])
    assert friedrichs_cosine(x_axis, y_axis) == 0.0


def test_friedrichs_same_in_3d(lines2, lines3):
    a1, b1, _ = lines2
    a2, b2, _ = lines3
    assert friedrichs_cosine(a2, b2) == pytest.approx(
        friedrichs_cosine(a1, b1), abs=1e-12
    )


def test_friedrichs_ignores_shared_directions():
    # two planes in R^3 sharing the x-axis meet at the angle of their
    # off-axis directions
    a = AffineSubspace.from_span([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = AffineSubspace.from_span([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    assert friedrichs_cosine(a, b) == pytest.approx(HALF_SQRT2, abs=1e-12)


def test_friedrichs_complement_duality():
    # when the normal spaces meet trivially, the angle of the complements
    # equals the angle of the subspaces
    rng = np.random.default_rng(33)
    for _ in range(10):
        a = orthonormalize(rng.normal(size=(3, 5)))
        b = orthonormalize(rng.normal(size=(3, 5)))
        fa = AffineSubspace.from_span(np.zeros(5), a)
        fb = AffineSubspace.from_span(np.zeros(5), b)
        if not check_strong_regularity(fa, fb, np.zeros(5)):
            continue
        ca = complement_basis(a, 5)
        cb = complement_basis(b, 5)
        fca = AffineSubspace.from_span(np.zeros(5), ca)
        fcb = AffineSubspace.from_span(np.zeros(5), cb)
        assert friedrichs_cosine(fca, fcb) == pytest.approx(
            friedrichs_cosine(fa, fb), abs=1e-10
        )


def test_friedrichs_matches_the_reduction_modulo_the_meet():
    # pairs sharing one or two directions, each with directions of its own:
    # the cosine after the shared ones is the reduced pair's largest
    rng = np.random.default_rng(41)
    for _ in range(60):
        shared = int(rng.integers(1, 3))
        ka = int(rng.integers(1, 5 - shared))
        kb = int(rng.integers(1, 6 - shared - ka))
        common = rng.normal(size=(shared, 5))
        a = AffineSubspace.from_span(np.zeros(5), np.vstack([common, rng.normal(size=(ka, 5))]))
        b = AffineSubspace.from_span(np.zeros(5), np.vstack([common, rng.normal(size=(kb, 5))]))
        assert subspace_intersection(a.basis, b.basis).shape[0] == shared
        assert friedrichs_cosine(a, b) == pytest.approx(
            ref_friedrichs_cosine(a, b), abs=1e-12
        )


def test_friedrichs_nested_pair_is_zero():
    # a line inside a plane: every cosine is a shared direction's one
    plane = AffineSubspace.from_span(np.zeros(3), [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    for direction in ([1.0, 2.0, 0.0], [0.3, -0.7, 0.0], [1.0, 0.0, 0.0]):
        line = AffineSubspace.from_span(np.zeros(3), [direction])
        assert friedrichs_cosine(line, plane) == 0.0
        assert friedrichs_cosine(plane, line) == 0.0


def test_largest_cosine_of_one_pair_is_the_largest_principal_cosine():
    rng = np.random.default_rng(8)
    for _ in range(200):
        k, l = rng.integers(1, 5, size=2)
        a = orthonormalize(rng.normal(size=(k, 4)))
        b = orthonormalize(rng.normal(size=(l, 4)))
        assert _largest_cosine(a[None], b[None]) == largest_principal_cosine(a, b)


# ---------------------------------------------------------------------------
# predicted rates
# ---------------------------------------------------------------------------


def test_predicted_rates_identical_convex_sets():
    rep = predicted_rates(0.0, 0.0, 1.0, 1.0, a_convex=True, b_convex=True, b_affine=True, delta=1.0)
    assert rep.predicted_rate_map == 0.0
    assert rep.regime == "both_convex"


def test_predicted_rates_dr_zero_eps():
    rep = predicted_rates(0.0, 0.0, 2.0, 0.5, a_convex=False, b_convex=True, b_affine=True, delta=1.0)
    assert rep.eps_tilde_dr == 0.0
    assert rep.predicted_rate_dr == pytest.approx(math.sqrt(1 - 0.5 / 4))
    assert rep.dr_certified


def test_predicted_rates_invariants():
    rep = predicted_rates(
        0.1, 0.05, 2.0, 0.6, a_convex=False, b_convex=False, b_affine=False, delta=0.5
    )
    assert rep.eta == pytest.approx((1 - rep.c) / rep.kappa**2)
    ea, eb = rep.eps_a, rep.eps_b
    expected = 2 * ea * (1 + ea) + 2 * eb * (1 + eb) + 8 * ea * (1 + ea) * eb * (1 + eb)
    assert rep.eps_tilde_dr == pytest.approx(expected)
    assert rep.predicted_rate_dr == pytest.approx(math.sqrt(1 + rep.eps_tilde_dr - rep.eta))
    assert not rep.dr_certified  # b is not affine


def test_predicted_rates_both_nonconvex():
    # kappa = 2: gamma^2 = 0.25, and eta = (1 - 0.6) / 4 = 0.1.  MAP takes
    # the larger eps: eps~ = 2 eps (1 + eps), rate 1 - gamma^2 + eps~,
    # certified while eps~ <= gamma^2.  DR needs b affine.
    def rates(eps_a, eps_b):
        return predicted_rates(eps_a, eps_b, 2.0, 0.6, a_convex=False, b_convex=False,
                               b_affine=False, delta=0.5)

    rep = rates(0.1, 0.05)
    assert rep.regime == "both_nonconvex"
    assert rep.eps_tilde_map == pytest.approx(0.22)  # 2 * 0.1 * 1.1
    assert rep.predicted_rate_map == pytest.approx(0.97)  # 0.75 + 0.22
    assert rep.map_certified
    assert rep.eps_tilde_dr == pytest.approx(0.3712)  # 0.22 + 0.105 + 8 * 0.11 * 0.0525
    assert rep.eta == pytest.approx(0.1)
    assert not rep.dr_certified
    rep = rates(0.2, 0.0)
    assert rep.regime == "both_nonconvex"
    assert rep.eps_tilde_map == pytest.approx(0.48)  # 2 * 0.2 * 1.2
    assert rep.predicted_rate_map == pytest.approx(1.23)  # 0.75 + 0.48
    assert not rep.map_certified


def test_predicted_rates_no_guarantee_flags():
    rep = predicted_rates(0.3, 0.0, 4.0, 0.9, a_convex=False, b_convex=True, b_affine=True, delta=1.0)
    # eta = 0.1/16 is far below the violation constant: no contraction
    assert rep.predicted_rate_dr >= 1.0
    assert not rep.dr_certified


def test_predicted_rates_inflation_direction():
    base = predicted_rates(0.05, 0.0, 2.0, 0.5, a_convex=False, b_convex=True, b_affine=True, delta=1.0)
    infl = predicted_rates(
        0.05, 0.0, 2.0, 0.5, a_convex=False, b_convex=True, b_affine=True, delta=1.0, inflation=1.05
    )
    assert infl.predicted_rate_dr >= base.predicted_rate_dr
    assert infl.predicted_rate_map >= base.predicted_rate_map


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------


def coercivity_loop(op, sol, lam, region, samples, seed):
    """The per-sample loop ``verify_coercivity`` ran before it was batched,
    on the per-point step and distance formulas."""
    worst = math.inf
    for x in region.sample(samples, seed):
        step = float(np.linalg.norm(x - ref_step(op, x)))
        worst = min(worst, step - lam * ref_sol_distance(sol, x))
    return float(worst)


def _projector(s):
    return PointMap(s.dim, lambda x, P: P(s, x))


def _coercivity(op, sol, lam, region, samples, seed):
    margin = verify_coercivity(op, sol, lam, region, samples=samples, seed=seed)
    reference = coercivity_loop(op, sol, lam, region, samples, seed)
    assert np.float64(margin).tobytes() == np.float64(reference).tobytes(), (margin, reference)
    return margin


def test_coercivity_projector_two_lines(lines2):
    a, b, sol = lines2
    margin = _coercivity(_projector(b), sol, math.sin(math.pi / 4),
                         Region(np.zeros(2), 1.0, within=a), samples=256, seed=1)
    assert margin >= -1e-9


def test_coercivity_fails_at_tangency(line_ball):
    line, ball, sol = line_ball
    margin = _coercivity(_projector(ball), sol, 0.5,
                         Region(np.zeros(2), 1.0, within=line), samples=256, seed=1)
    assert margin < 0


def test_coercivity_zero_on_solution_set(lines2):
    a, b, sol = lines2
    margin = _coercivity(_projector(b), sol, 1.0,
                         Region(np.zeros(2), 1e-12), samples=16, seed=0)
    assert abs(margin) <= 1e-9


def test_contraction_transfer_lemma(lines2):
    # wherever the firm inequality and the coercivity margin both hold, the
    # distance contracts by sqrt(1 + eps - lambda^2)
    a, b, sol = lines2
    op = _projector(b)
    lam = math.sin(math.pi / 4)
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(300):
        x = np.append(rng.uniform(-1, 1), 0.0)  # points of the first line
        xp = op.step(x)
        xbar = sol.exact.project(x).selected
        d = sol.distance(x)
        firm = (
            np.linalg.norm(xp - xbar) ** 2 + np.linalg.norm(x - xp) ** 2
            <= np.linalg.norm(x - xbar) ** 2 + 1e-12
        )
        coercive = np.linalg.norm(x - xp) >= lam * d - 1e-12
        if firm and coercive and d > 1e-12:
            checked += 1
            assert sol.distance(xp) ** 2 <= (1 + 0.0 - lam**2) * d**2 + 1e-9
    assert checked > 100
