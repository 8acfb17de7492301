import math

import numpy as np
import pytest

from projfeas.driver import fit_rate, iterate, probe_fixed_points, trace_to_csv
from projfeas.operators import AlternatingProjections, DouglasRachford
from projfeas.regularity import Region, estimate_kappa, estimate_subregularity, friedrichs_cosine
from projfeas.runner import random_subspace_pair
from projfeas.sets import AffineSubspace
from projfeas.solution import subspace_pair_solution

HALF_SQRT2 = math.sqrt(2.0) / 2.0


def test_map_two_lines_halves_distance(lines2):
    a, b, sol = lines2
    trace = iterate(AlternatingProjections(a, b), [1.0, 0.0], sol, max_iters=100, tol=1e-10)
    assert trace.stop_reason == "tolerance"
    # closed-form cascade: x_n = (2^-n, 0)
    n = min(len(trace), 20)
    np.testing.assert_allclose(trace.dist_to_s[:n], 0.5 ** np.arange(n), rtol=1e-12)


def test_trace_invariants(lines2):
    a, b, sol = lines2
    trace = iterate(DouglasRachford(a, b), [1.0, 0.3], sol, max_iters=50, tol=1e-8)
    L = len(trace)
    assert trace.dist_to_a.shape == (L,)
    assert trace.dist_to_b.shape == (L,)
    assert trace.dist_to_s.shape == (L,)
    assert trace.step_norms.shape == (L - 1,)
    for n in range(L - 1):
        assert trace.step_norms[n] == pytest.approx(
            np.linalg.norm(trace.iterates[n + 1] - trace.iterates[n])
        )


def test_start_on_solution_set_stops_immediately(lines2):
    a, b, sol = lines2
    trace = iterate(AlternatingProjections(a, b), [0.0, 0.0], sol, max_iters=10, tol=1e-10)
    assert trace.stop_reason == "tolerance"
    assert len(trace) == 1


def test_stagnation_at_dr_fixed_point_off_solution(lines3):
    a, b, sol = lines3
    trace = iterate(DouglasRachford(a, b), [0.0, 0.0, 1.0], sol, max_iters=50, tol=1e-10)
    assert trace.stop_reason == "stagnation"
    assert trace.final_dist_to_s == pytest.approx(1.0, abs=1e-14)


def test_max_iters_stop(line_ball):
    line, ball, sol = line_ball
    trace = iterate(AlternatingProjections(line, ball), [1.0, 0.0], sol, max_iters=50, tol=1e-12)
    assert trace.stop_reason == "max_iters"
    assert len(trace) == 51


def test_iterate_determinism(cross_diag):
    cross, diag, sol = cross_diag
    op = DouglasRachford(cross, diag)
    t1 = iterate(op, [0.3, -0.7], sol, max_iters=60, tol=1e-12)
    t2 = iterate(op, [0.3, -0.7], sol, max_iters=60, tol=1e-12)
    np.testing.assert_array_equal(t1.iterates, t2.iterates)
    np.testing.assert_array_equal(t1.dist_to_s, t2.dist_to_s)
    assert t1.stop_reason == t2.stop_reason


def test_map_fejer_monotone_on_convex_pairs(lines2, line_ball):
    for a, b, sol in (lines2, line_ball):
        trace = iterate(AlternatingProjections(a, b), [1.0, 0.0], sol, max_iters=300, tol=1e-12)
        diffs = np.diff(trace.dist_to_s)
        assert np.all(diffs <= 1e-15)


def test_fit_rate_exact_geometric():
    # synthetic trace with dist = 2^-n
    n = 40
    d = 0.5 ** np.arange(n)
    trace_dummy = type(
        "T", (), {"dist_to_s": d, "iterates": np.zeros((n, 1)), "step_norms": np.zeros(n - 1)}
    )()
    fit = fit_rate(trace_dummy)
    assert fit.observed_rate == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.linear


def test_fit_rate_requires_enough_entries(lines2):
    a, b, sol = lines2
    trace = iterate(AlternatingProjections(a, b), [0.0, 0.0], sol, max_iters=5, tol=1e-10)
    with pytest.raises(ValueError):
        fit_rate(trace)


def test_fit_rate_detects_sublinear(line_ball):
    line, ball, sol = line_ball
    trace = iterate(AlternatingProjections(line, ball), [1.0, 0.0], sol, max_iters=20000, tol=1e-14)
    fit = fit_rate(trace)
    assert not fit.linear


def test_dr_two_lines_rate_friedrichs(lines2):
    a, b, sol = lines2
    trace = iterate(DouglasRachford(a, b), [1.0, 0.0], sol, max_iters=300, tol=1e-11)
    fit = fit_rate(trace)
    assert fit.observed_rate == pytest.approx(HALF_SQRT2, abs=0.01)


def test_map_cycle_ratio_bound(cross_diag):
    # both sets subregular toward the origin with eps 0; every per-cycle
    # ratio must respect 1 - gamma^2 + eps_tilde with inflated constants
    cross, diag, sol = cross_diag
    eps = estimate_subregularity(cross, sol, 1.0, samples=512, seed=0)
    kappa = estimate_kappa(cross, diag, sol, 1.0, samples=1024, seed=0)
    eps_i = 1.05 * eps
    gamma = 1.0 / (1.05 * kappa)
    eps_tilde = 2 * eps_i + 2 * eps_i**2
    assert eps_tilde <= gamma**2
    bound = 1 - gamma**2 + eps_tilde
    trace = iterate(AlternatingProjections(cross, diag), [0.4, -0.9], sol, max_iters=60, tol=1e-12)
    d = trace.dist_to_s
    ratios = d[1:][d[:-1] > 1e-13] / d[:-1][d[:-1] > 1e-13]
    assert np.all(ratios <= bound + 1e-9)


def test_probe_finds_fixed_points_off_solution(lines3):
    a, b, sol = lines3
    op = DouglasRachford(a, b)
    res = probe_fixed_points(op, Region(np.zeros(3), 2.0), 24, 11, sol, max_iters=500, tol=1e-10)
    off = [(p, d) for p, d in res.limits if d > 1e-6]
    assert off, "expected limits away from the intersection"
    # limits live on the third coordinate axis
    for p, d in off:
        assert abs(p[0]) <= 1e-8 and abs(p[1]) <= 1e-8
        assert d == pytest.approx(abs(p[2]), abs=1e-8)
    # exact fixed-point frame: {0} + meet of the normal spaces = the x3-axis
    frame = res.fixed_point_frame
    assert frame is not None
    assert frame.dim_subspace == 1
    np.testing.assert_allclose(np.abs(frame.basis[0]), [0.0, 0.0, 1.0], atol=1e-12)


def test_probe_all_limits_on_solution_when_regular(lines2):
    a, b, sol = lines2
    op = DouglasRachford(a, b)
    res = probe_fixed_points(op, Region(np.zeros(2), 2.0), 16, 5, sol, max_iters=500, tol=1e-9)
    assert all(d <= 1e-9 for _, d in res.limits)
    assert res.fixed_point_frame.dim_subspace == 0


def test_subspace_dr_rate_bound_random_pairs():
    rng_seeds = [301, 302, 303, 304]
    for seed in rng_seeds:
        rng = np.random.default_rng(seed)
        a = AffineSubspace.from_span(np.zeros(5), rng.normal(size=(3, 5)))
        b = AffineSubspace.from_span(np.zeros(5), rng.normal(size=(3, 5)))
        sol = subspace_pair_solution(a, b, np.zeros(5))
        trace = iterate(DouglasRachford(a, b), rng.normal(size=5), sol, max_iters=4000, tol=1e-10)
        if trace.stop_reason != "tolerance":
            continue
        fit = fit_rate(trace)
        from projfeas.linalg import complement_basis, largest_principal_cosine

        c = largest_principal_cosine(
            complement_basis(a.basis, 5), complement_basis(b.basis, 5)
        )
        kappa = estimate_kappa(a, b, sol, 1.0, samples=1024, seed=seed)
        bound = math.sqrt(max(1 - (1 - c) / (kappa * 1.05) ** 2, 0.0)) + 0.02
        assert fit.observed_rate <= bound


def test_sweep_rates_equal_their_closed_forms():
    # on two linear subspaces DR contracts at the Friedrichs cosine cF
    # (Bauschke, Bello Cruz, Nghia, Phan and Wang) and MAP at cF**2
    # (Kayalar and Weinert); the ten regular pairs of the subspace sweep
    for idx in range(0, 20, 2):
        a, b, x0 = random_subspace_pair(2025 + idx, (3, 3))
        sol = subspace_pair_solution(a, b, np.zeros(5))
        c_f = friedrichs_cosine(a, b)
        for op, rate in ((DouglasRachford(a, b), c_f), (AlternatingProjections(a, b), c_f**2)):
            trace = iterate(op, x0, sol, max_iters=5000, tol=1e-9)
            assert trace.stop_reason == "tolerance", (idx, type(op).__name__)
            assert fit_rate(trace).observed_rate == pytest.approx(rate, abs=1e-7), (idx, rate)


def test_trace_csv_round_trip(tmp_path, lines2):
    a, b, sol = lines2
    trace = iterate(DouglasRachford(a, b), [1.0, 0.0], sol, max_iters=40, tol=1e-9)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "iter,x_0,x_1,dist_A,dist_B,dist_S,step_norm"
    assert len(rows) == len(trace) + 1
    first = rows[1].split(",")
    assert float(first[1]) == 1.0 and float(first[2]) == 0.0
    assert rows[-1].endswith(",")  # final row has no forward step
