"""The batched iteration kernel against per-point references, bit for bit.

The sets and operators write each formula once, over the rows of a point
array, and evaluate it on a batch of one for a single point.  The references
are the per-point formulas they had before that, on 1-D arrays
(``kernel_reference``), and the per-start loop ``reference_iterate``.
``project_many``, ``project``, ``distance_many``, ``distance``,
``step_many``, ``step``, ``apply`` and the blocked, masked loop behind
``iterate`` and ``probe_fixed_points`` are checked against them, the loop
also with stops on the boundaries of its blocks; ``trace_to_csv`` is checked
against the ``csv.writer`` loop it replaced.  Every comparison is on the
bytes of the results, so signed zeros count.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from projfeas import presets
from projfeas.driver import (
    BLOCK_ROWS,
    CSV_CHUNK_ROWS,
    DIVERGENCE_NORM,
    STAGNATION_STEP,
    _advance,
    _pair_sets,
    iterate,
    probe_fixed_points,
    trace_to_csv,
)
from projfeas.linalg import AffineFrame, row_norms
from projfeas.operators import (
    AlternatingProjections,
    Combination,
    Companion,
    DouglasRachford,
    FixedPointOperator,
    SingleProjector,
    SingleReflector,
)
from projfeas.regularity import Region
from projfeas.runner import random_subspace_pair
from projfeas.sets import (
    AffineSubspace,
    Ball,
    IntersectionSet,
    KinkedRegion,
    Sphere,
    UnionOfSubspaces,
)
from projfeas.solution import SolutionSet, singleton_solution, subspace_pair_solution

from kernel_reference import (
    ref_distance,
    ref_project,
    ref_sol_distance,
    ref_step,
    ref_trace_to_csv,
)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_affine(seed, dim, k):
    rng = np.random.default_rng(seed)
    return AffineSubspace.from_span(rng.normal(size=dim), rng.normal(size=(k, dim)) if k else [])


def _random_union(seed):
    rng = np.random.default_rng(seed)
    frames = [AffineFrame.from_span(rng.normal(size=3), rng.normal(size=(k, 3))) for k in (1, 2, 0)]
    return UnionOfSubspaces(frames)


BISECTOR = np.array([math.cos(math.radians(67.5)), math.sin(math.radians(67.5))])

# each set with points where its projector ties or is singular
SETS = {
    "affine-point": (_random_affine(1, 2, 0), []),
    "affine-line-2d": (AffineSubspace.from_span([0.0, 0.0], [[1.0, 1.0]]), []),
    "affine-line-3d": (_random_affine(2, 3, 1), []),
    "affine-plane-5d": (_random_affine(3, 5, 2), []),
    "affine-3-flat-5d": (_random_affine(4, 5, 3), []),
    "ball": (Ball([0.5, -1.0], 1.5), [[0.5, -1.0], [2.0, -1.0]]),
    "sphere": (Sphere([0.5, -1.0], 1.5), [[0.5, -1.0], [0.5 + 1e-14, -1.0], [2.0, -1.0]]),
    "cross": (UnionOfSubspaces.cross(2), [[0.0, 0.0], [0.7, 0.7], [-0.7, 0.7], [0.7, -0.7]]),
    "union-3d": (_random_union(5), []),
    "kinked": (KinkedRegion(), [2.0 * BISECTOR, 0.5 * BISECTOR, [0.0, 0.0], [1.0, 0.0], [-1.0, 1.0]]),
}


def _rows(dim):
    return arrays(np.float64, st.tuples(st.integers(1, 12), st.just(dim)),
                  elements=st.floats(-4.0, 4.0, allow_nan=False))


@pytest.mark.parametrize("name", sorted(SETS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_project_many_matches_project(name, data):
    s, ties = SETS[name]
    X = data.draw(_rows(s.dim))
    if ties:
        X = np.vstack([X, ties])
    P = s.project_many(X)
    for x, p in zip(X, P):
        ref, dist = ref_project(s, x)
        out = s.project(x)
        assert same_bits(p, ref) and same_bits(out.selected, ref), (x, p, ref)
        assert same_bits(out.distance, dist), (x, out.distance, dist)


def test_tie_points_keep_their_rules():
    cross = SETS["cross"][0]
    np.testing.assert_array_equal(cross.project_many(np.array([[0.7, 0.7]])), [[0.7, 0.0]])
    kink = KinkedRegion()
    assert kink.project(2.0 * BISECTOR).branch_count == 2
    assert kink.project_many((2.0 * BISECTOR)[None])[0, 0] < 0  # the slanted edge, lexicographically
    sphere = Sphere([0.5, -1.0], 1.5)
    np.testing.assert_array_equal(sphere.project_many(np.array([[0.5, -1.0]])), [[2.0, -1.0]])


def test_distance_many_matches_distance():
    rng = np.random.default_rng(3)
    for name, (s, ties) in SETS.items():
        X = np.vstack([rng.normal(scale=2.0, size=(50, s.dim))] + ([ties] if ties else []))
        ref = [ref_distance(s, x) for x in X]
        assert same_bits(s.distance_many(X), ref), name
        assert same_bits([s.distance(x) for x in X], ref), name
        # the projection measures the same distance
        assert same_bits([s.project(x).distance for x in X], ref), name
    # a solution set with no closed form measures the distance to its witness
    ball = Ball([0.0, 0.0, 0.0], 1.0)
    sol = SolutionSet((ball,), [0.6, 0.0, 0.8])
    X = rng.normal(scale=2.0, size=(500, 3))
    ref = [ref_sol_distance(sol, x) for x in X]
    assert same_bits(sol.distance_many(X), ref)
    assert same_bits([sol.distance(x) for x in X], ref)


def _operators():
    cross, diag = presets.cross_and_diagonal()
    circle, line = presets.circle_and_line()
    line3, ball = presets.line_and_ball()
    return {
        "projector": SingleProjector(cross),
        "reflector": SingleReflector(KinkedRegion()),
        "map": AlternatingProjections(circle, line),
        "dr": DouglasRachford(cross, diag),
        "companion": Companion(DouglasRachford(ball, line3)),
        "combination": Combination([(0.3, AlternatingProjections(line3, ball)),
                                    (0.7, SingleReflector(circle))]),
    }


@pytest.mark.parametrize("name", sorted(_operators()))
def test_step_many_matches_per_point_formula(name):
    op = _operators()[name]
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(scale=1.5, size=(200, 2)), [[0.0, 0.0], [0.7, 0.7], 2.0 * BISECTOR]])
    Y = op.step_many(X)
    for x, y in zip(X, Y):
        assert same_bits(y, ref_step(op, x)), (x, y)
        assert same_bits(op.step(x), y) and same_bits(op.apply(x).selected, y)


# ---------------------------------------------------------------------------
# the masked loop against the per-start reference
# ---------------------------------------------------------------------------


def reference_iterate(op, x0, sol, max_iters, tol):
    """The per-start loop ``iterate`` ran before it was batched."""
    x = np.asarray(x0, dtype=float)
    xs, ds, steps = [x], [ref_sol_distance(sol, x)], []
    stop = None
    for _ in range(max_iters):
        if ds[-1] < tol:
            stop = "tolerance"
            break
        x_next = ref_step(op, x)
        steps.append(float(np.linalg.norm(x_next - x)))
        x = x_next
        xs.append(x)
        ds.append(ref_sol_distance(sol, x))
        if float(np.linalg.norm(x)) > DIVERGENCE_NORM:
            stop = "divergence"
            break
        if steps[-1] < STAGNATION_STEP:
            stop = "tolerance" if ds[-1] < tol else "stagnation"
            break
    if stop is None:
        stop = "tolerance" if ds[-1] < tol else "max_iters"
    return np.array(xs), np.array(ds), np.array(steps), stop


def _assert_batch_matches_reference(op, starts, sol, max_iters, tol):
    finals, dists, stops, used = _advance(op, starts, sol, max_iters, tol)
    for i, x0 in enumerate(starts):
        xs, ds, _, stop = reference_iterate(op, x0, sol, max_iters, tol)
        assert (stops[i], int(used[i])) == (stop, len(xs) - 1), i
        assert same_bits(finals[i], xs[-1]) and same_bits(dists[i], ds[-1]), i
    return stops


@pytest.mark.parametrize(
    "name", ["example-iv", "example-iv-map", "example-iii-dr", "example-v", "example-ii"]
)
def test_probe_matches_per_start_iterate(name):
    cfg = presets.preset(name)
    sol, op = cfg.solution_set(), cfg.operator()
    region = Region(sol.witness, 1.5)
    budget = {"max_iters": cfg.budget.max_iters, "tol": cfg.budget.tol}
    probe = probe_fixed_points(op, region, 40, 11, sol, **budget)
    starts = region.sample(40, 11)
    _assert_batch_matches_reference(op, starts, sol, **budget)
    for x0, (limit, dist) in zip(starts, probe.limits):
        trace = iterate(op, x0, sol, **budget)
        assert same_bits(limit, trace.final) and same_bits(dist, trace.final_dist_to_s)


def test_one_batch_mixes_every_stop_reason():
    # x -> 4 P(x) - 3 x for the unit ball: interior points are fixed, and
    # outside the radius maps as r -> |4 - 3 r|
    op = Companion(SingleReflector(Ball([0.0, 0.0], 1.0)))
    sol = singleton_solution((op.inner.s,), [0.0, 0.0])
    starts = np.array([[0.0, 0.0], [4.0 / 3.0, 0.0], [0.5, 0.0], [2.0, 0.0], [3.0, 0.0]])
    stops = _assert_batch_matches_reference(op, starts, sol, max_iters=60, tol=1e-9)
    assert list(stops) == ["tolerance", "tolerance", "stagnation", "max_iters", "divergence"]


ITERATING_PRESETS = [
    n for n in sorted(presets.PRESETS)
    if presets.preset(n).algorithm is not None and presets.preset(n).start is not None
]


def test_stop_precedence_after_a_step():
    # projecting onto the first axis: a fixed point beyond DIVERGENCE_NORM
    # stops on divergence, not stagnation; a step shorter than
    # STAGNATION_STEP that lands within tol stops on tolerance
    axis = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    op = SingleProjector(axis)
    sol = singleton_solution((axis,), [0.0, 0.0])
    starts = np.array([[2e12, 0.0], [1e-9 * (1 - 2e-15), 1e-16], [3.0, 1.0]])
    stops = _assert_batch_matches_reference(op, starts, sol, max_iters=10, tol=1e-9)
    assert list(stops) == ["divergence", "tolerance", "stagnation"]


@pytest.mark.parametrize("name", ITERATING_PRESETS)
def test_trace_distances_are_the_set_distances(name):
    # the trace CSV's dist_A and dist_B columns, from the first start as
    # run_experiment writes them
    cfg = presets.preset(name)
    sol, op = cfg.solution_set(), cfg.operator()
    a, b = _pair_sets(op)
    x0 = cfg.start.points(cfg.regularity.seed)[0]
    trace = iterate(op, x0, sol, max_iters=min(cfg.budget.max_iters, 2000), tol=cfg.budget.tol)
    for s, column in ((a, trace.dist_to_a), (b, trace.dist_to_b)):
        assert same_bits(column, [s.distance(x) for x in trace.iterates])
        assert same_bits(column, [ref_distance(s, x) for x in trace.iterates])


def _writes_reference_bytes(trace, tmp_path):
    trace_to_csv(trace, tmp_path / "trace.csv")
    ref_trace_to_csv(trace, tmp_path / "reference.csv")
    return (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("name", ITERATING_PRESETS)
def test_trace_csv_matches_csv_writer(name, tmp_path):
    cfg = presets.preset(name)
    sol, op = cfg.solution_set(), cfg.operator()
    x0 = cfg.start.points(cfg.regularity.seed)[0]
    trace = iterate(op, x0, sol, max_iters=min(cfg.budget.max_iters, 2000), tol=cfg.budget.tol)
    assert _writes_reference_bytes(trace, tmp_path)


def test_trace_csv_edge_lengths_match_csv_writer(tmp_path):
    cfg = presets.preset("example-iii")
    sol, op = cfg.solution_set(), cfg.operator()
    # longer than one write chunk and not a multiple of it
    long = iterate(op, [1.0, 0.0], sol, max_iters=2 * CSV_CHUNK_ROWS + 344, tol=1e-12)
    assert len(long) == 2 * CSV_CHUNK_ROWS + 345
    # a start on the solution set: one row, no step
    one = iterate(op, sol.witness, sol, max_iters=10, tol=1e-12)
    assert len(one) == 1
    # five dimensions: the first pair of the subspace sweep
    a, b, x0 = random_subspace_pair(2025, (3, 3))
    five = iterate(DouglasRachford(a, b), x0, subspace_pair_solution(a, b, np.zeros(5)), 5000, 1e-9)
    assert five.iterates.shape[1] == 5 and len(five) > 10
    for trace in (long, one, five):
        assert _writes_reference_bytes(trace, tmp_path)


@pytest.mark.parametrize("name", ITERATING_PRESETS)
def test_iterate_matches_reference_trace(name):
    cfg = presets.preset(name)
    sol, op = cfg.solution_set(), cfg.operator()
    max_iters = min(cfg.budget.max_iters, 2000)
    for x0 in cfg.start.points(cfg.regularity.seed)[:5]:
        trace = iterate(op, x0, sol, max_iters=max_iters, tol=cfg.budget.tol)
        xs, ds, steps, stop = reference_iterate(op, x0, sol, max_iters, cfg.budget.tol)
        assert trace.stop_reason == stop
        assert same_bits(trace.iterates, xs) and same_bits(trace.dist_to_s, ds)
        assert same_bits(trace.step_norms, steps)


# ---------------------------------------------------------------------------
# block boundaries of the loop
# ---------------------------------------------------------------------------

AXIS = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
ORIGIN = AffineSubspace(AffineFrame.single_point([0.0, 0.0]))
ORIGIN_SOL = singleton_solution((AXIS,), [0.0, 0.0])


def _shrink(w):
    """``x -> w x`` on the first axis: the projections onto the origin and
    onto the axis, combined with weights ``1 - w`` and ``w``."""
    return Combination([(1.0 - w, SingleProjector(ORIGIN)), (w, SingleProjector(AXIS))])


def _blocks(op, starts, sol, max_iters, tol):
    """``(first, last)`` step of every block the loop runs."""
    spans = []

    def record(n, xs, ds, steps):
        if steps is not None:
            spans.append((n, n + len(xs) - 1))

    _advance(op, np.asarray(starts, dtype=float), sol, max_iters, tol, record)
    return spans


def test_stops_on_block_boundaries():
    # x -> x / 2 from 1.5 * 2**(t - 41) drops below tol = 2**-40 on step t
    # exactly; from 2**39 it neither stagnates nor reaches 2**-60 in 80 steps
    op, far, tol = _shrink(0.5), np.array([[2.0**39, 0.0]]), 2.0**-40
    spans = _blocks(op, far, ORIGIN_SOL, 80, 2.0**-60)
    assert spans[0] == (1, 1) and spans[-1][1] == 80 and len(spans) > 4
    # the start, then the first, a middle and the last step of every block
    for t in sorted({0} | {t for first, last in spans for t in (first, (first + last) // 2, last)}):
        x0 = np.array([[1.5 * 2.0 ** (t - 41), 0.0]])
        finals, dists, stops, used = _advance(op, x0, ORIGIN_SOL, 80, tol)
        assert (stops[0], used[0]) == ("tolerance", t)
        _assert_batch_matches_reference(op, x0, ORIGIN_SOL, max_iters=80, tol=tol)
        if t:  # the budget runs out on the step that reaches tol
            stops = _assert_batch_matches_reference(op, x0, ORIGIN_SOL, max_iters=t, tol=tol)
            assert stops[0] == "tolerance"
    for first, last in spans:  # the budget runs out on a block end
        stops = _assert_batch_matches_reference(op, far, ORIGIN_SOL, max_iters=last, tol=2.0**-60)
        assert stops[0] == "max_iters"


def test_rows_stop_in_different_blocks():
    op, tol = _shrink(0.5), 2.0**-40
    starts = np.array([[1.5 * 2.0 ** (t - 41), 0.0] for t in range(71)] + [[-(2.0**39), 0.0]])
    finals, dists, stops, used = _advance(op, starts, ORIGIN_SOL, 75, tol)
    assert list(used) == list(range(71)) + [75] and stops[-1] == "max_iters"
    assert len(_blocks(op, starts, ORIGIN_SOL, 75, tol)) > 4
    _assert_batch_matches_reference(op, starts, ORIGIN_SOL, 75, tol)


def test_stops_on_the_boundaries_of_full_blocks():
    # the first block of BLOCK_ROWS steps; tol is cut from one reference
    # trajectory so that x -> 0.999 x stops on a chosen step
    op, x0, budget = _shrink(0.999), np.array([1.0, 0.0]), 2 * BLOCK_ROWS
    spans = _blocks(op, [x0], ORIGIN_SOL, budget, 1e-300)
    first, last = next(s for s in spans if s[1] - s[0] + 1 == BLOCK_ROWS)
    xs, ds, _, _ = reference_iterate(op, x0, ORIGIN_SOL, last, 0.0)
    for t in (first - 1, first, (first + last) // 2, last):
        finals, dists, stops, used = _advance(op, x0[None], ORIGIN_SOL, budget, ds[t - 1])
        assert (stops[0], used[0]) == ("tolerance", t)
        assert same_bits(finals[0], xs[t]) and same_bits(dists[0], ds[t])
    finals, dists, stops, used = _advance(op, x0[None], ORIGIN_SOL, last, 1e-300)
    assert (stops[0], used[0]) == ("max_iters", last)
    assert same_bits(finals[0], xs[last]) and same_bits(dists[0], ds[last])


class _Squaring(FixedPointOperator):
    """``x -> |x| x``: the norm squares on every step.  A block never runs
    past a stop by more steps than the row took to reach it, so only
    growth faster than geometric can overflow inside one."""

    dim = 2

    def _stages(self, X):
        return {}, row_norms(X)[:, None] * X

    def point_step(self, x):
        return float(np.linalg.norm(x)) * x


def test_row_overflowing_past_its_stop_stays_out_of_the_distances():
    # from 1.2 the norm is 1.2**(2**n): past DIVERGENCE_NORM on step 8 and
    # infinite from step 12, inside the block of steps 8..15 of a batch of
    # one.  The solution set's exact form is an intersection, whose distance
    # rejects non-finite points
    far = AffineSubspace(AffineFrame.single_point([0.0, 5.0]))
    sol = SolutionSet((far,), [0.0, 5.0], IntersectionSet([far]))
    op, x0 = _Squaring(), np.array([[1.2, 0.0]])
    finite = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _advance(op, x0, sol, 100, 1e-9, lambda n, xs, ds, steps: finite.append(np.isfinite(xs).all()))
        stops = _assert_batch_matches_reference(op, x0, sol, 100, 1e-9)
    assert list(stops) == ["divergence"] and not all(finite)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_iterate_on_an_intersection_solution_set():
    # MAP between two lines through the origin; the intersection's distance
    # is a member projection that lands in every member, here the origin's
    a = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    b = AffineSubspace.from_span([0.0, 0.0], [[1.0, 1.0]])
    sol = SolutionSet((a, b), [0.0, 0.0], IntersectionSet([ORIGIN]))
    op, x0 = AlternatingProjections(a, b), np.array([1.0, 0.3])
    trace = iterate(op, x0, sol, max_iters=100, tol=1e-12)
    xs, ds, steps, stop = reference_iterate(op, x0, sol, 100, 1e-12)
    assert trace.stop_reason == stop == "tolerance" and len(trace) > 20
    assert same_bits(trace.iterates, xs) and same_bits(trace.dist_to_s, ds)
    assert same_bits(trace.step_norms, steps)
