"""The batched iteration kernel against per-point references, bit for bit.

The sets and operators write each formula once, over the rows of a point
array, and evaluate it on a batch of one for a single point.  The references
are the per-point formulas they had before that, on 1-D arrays
(``kernel_reference``), and the per-start loop ``reference_iterate``.
``project_many``, ``project``, ``distance_many``, ``distance``,
``step_many``, ``step``, ``apply`` and the blocked, masked loop behind
``iterate_many``, ``iterate`` and ``probe_fixed_points`` are checked against
them, the loop also with stops on the boundaries of its blocks, and each
``iterate_many`` trace against ``iterate`` from its start; ``trace_to_csv``
is checked against the ``csv.writer`` loop it replaced.  Every comparison is on the
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
    iterate,
    iterate_many,
    probe_fixed_points,
    trace_to_csv,
)
from projfeas.linalg import row_norms
from projfeas.operators import (
    AlternatingProjections,
    DouglasRachford,
    FixedPointOperator,
    _listed,
    dr_two_forms_agree,
)
from projfeas.regularity import Region
from projfeas.runner import random_subspace_pair
from projfeas.sets import (
    SAME_SHAPE_ROWS,
    TIE_TOL,
    AffineSubspace,
    Ball,
    KinkedRegion,
    Sphere,
    UnionOfSubspaces,
)
from projfeas.solution import SolutionSet, subspace_pair_solution

from kernel_reference import (
    PointMap,
    _dedup_sorted,
    ref_branch_apply,
    ref_distance,
    ref_outcome,
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
    frames = [AffineSubspace.from_span(rng.normal(size=3), rng.normal(size=(k, 3))) for k in (1, 2, 0)]
    return UnionOfSubspaces(frames)


HALF_SQRT2 = math.sqrt(2.0) / 2.0
BISECTOR = np.array([math.cos(math.radians(67.5)), math.sin(math.radians(67.5))])

# each set with points where its projector ties or is singular
SETS = {
    "affine-point": (_random_affine(1, 2, 0), []),
    "affine-line-2d": (AffineSubspace.from_span([0.0, 0.0], [[1.0, 1.0]]), []),
    "affine-line-3d": (_random_affine(2, 3, 1), []),
    "affine-plane-5d": (_random_affine(3, 5, 2), []),
    "affine-3-flat-5d": (_random_affine(4, 5, 3), []),
    # the last ball row is one ulp outside the boundary, past the guard of its divisor
    "ball": (Ball([0.5, -1.0], 1.5), [[0.5, -1.0], [2.0, -1.0], [np.nextafter(2.0, 3.0), -1.0]]),
    # the last two sphere rows lie about one and two center guards, 1.5e-13, from
    # the center: the first rounds to 1.49991e-13, inside, the second is outside
    "sphere": (Sphere([0.5, -1.0], 1.5), [[0.5, -1.0], [0.5 + 1e-14, -1.0], [2.0, -1.0],
                                          [0.5 + 1.5e-13, -1.0], [0.5 + 3e-13, -1.0]]),
    "cross": (UnionOfSubspaces.cross(2), [[0.0, 0.0], [0.7, 0.7], [-0.7, 0.7], [0.7, -0.7]]),
    "union-3d": (_random_union(5), []),
    # the last three: a zero edge point whose sign np.minimum and np.maximum would flip
    "kinked": (KinkedRegion(), [2.0 * BISECTOR, 0.5 * BISECTOR, [0.0, 0.0], [1.0, 0.0], [-1.0, 1.0],
                                [0.0, 5e-324], [-0.0, 5e-324], [5e-324, 1e-323]]),
}


def _rows(dim):
    return arrays(np.float64, st.tuples(st.integers(1, 12), st.just(dim)),
                  elements=st.floats(-4.0, 4.0, allow_nan=False))


# a batch of up to SAME_SHAPE_ROWS rows reads the first rows of each set's
# constant tiles, a longer one broadcasts their first row
TILE_CUT = (SAME_SHAPE_ROWS, SAME_SHAPE_ROWS + 1)


def _held_arrays(s):
    """Every array a set holds, its frames' and its constant tiles too, and
    whether it is a tile."""
    for v in vars(s).values():
        if isinstance(v, np.ndarray):
            yield v, False
        elif isinstance(v, tuple):  # a union's frames
            for f in v:
                yield from _held_arrays(f)
        elif hasattr(v, "tiles"):
            yield from ((t, True) for t in v.tiles)


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
        ref = ref_outcome(s, x)
        out = s.project(x)
        assert same_bits(p, ref.selected) and same_bits(out.selected, ref.selected), (x, p, ref)
        assert same_bits(out.distance, ref.distance), (x, out.distance, ref.distance)
        assert out.branch_count == ref.branch_count, (x, out.branch_count, ref.branch_count)
        assert same_bits(out.branches, ref.branches), (x, out.branches, ref.branches)
    # the same rows cycled to either side of the tile cut: each matches its
    # row of P, which matched the reference
    outputs = [P]
    for m in TILE_CUT:
        outputs.append(s.project_many(np.resize(X, (m, s.dim))))
        assert same_bits(outputs[-1], np.resize(P, (m, s.dim))), m
    # every output is a new array, and the constant tiles are read-only
    held = list(_held_arrays(s))
    assert not any(np.shares_memory(Q, v) for Q in outputs for v, _ in held)
    assert not any(v.flags.writeable for v, tile in held if tile)
    assert any(tile for _, tile in held) != isinstance(s, KinkedRegion)


def test_tie_points_keep_their_rules():
    cross = SETS["cross"][0]
    np.testing.assert_array_equal(cross.project_many(np.array([[0.7, 0.7]])), [[0.7, 0.0]])
    kink = KinkedRegion()
    assert kink.project(2.0 * BISECTOR).branch_count == 2
    assert kink.project_many((2.0 * BISECTOR)[None])[0, 0] < 0  # the slanted edge, listed first
    sphere = Sphere([0.5, -1.0], 1.5)
    np.testing.assert_array_equal(sphere.project_many(np.array([[0.5, -1.0]])), [[2.0, -1.0]])


def test_distance_many_matches_distance():
    rng = np.random.default_rng(3)
    for name, (s, ties) in SETS.items():
        X = np.vstack([rng.normal(scale=2.0, size=(50, s.dim))] + ([ties] if ties else []))
        ref = [ref_distance(s, x) for x in X]
        assert same_bits(s.distance_many(X), ref), name
        assert same_bits([s.distance_many(x[None])[0] for x in X], ref), name
        # the projection measures the same distance
        assert same_bits([s.project(x).distance for x in X], ref), name
    # a solution set with no closed form measures the distance to its
    # witness, projects onto it and samples only it
    ball = Ball([0.0, 0.0, 0.0], 1.0)
    sol = SolutionSet((ball,), [0.6, 0.0, 0.8])
    X = rng.normal(scale=2.0, size=(500, 3))
    ref = [float(np.linalg.norm(x - sol.witness)) for x in X]
    assert same_bits(sol.distance_many(X), ref)
    assert same_bits([sol.distance(x) for x in X], ref)
    assert all(same_bits(sol.exact.project(x).selected, sol.witness) for x in X[:20])
    for delta, n, seed in ((1.0, 64, 0), (0.25, 4096, 7), (1e-9, 8, 3)):
        assert same_bits(sol.sample_points(delta, n, seed), sol.witness[None, :])


@pytest.mark.parametrize("name", sorted(SETS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_projection_is_idempotent_and_measures_the_distance(name, data):
    # on rows in [-4, 4], ties included, projecting again moved a coordinate
    # by at most 3.6e-15; the tie rule lets the selected branch lie up to
    # TIE_TOL * max(1, d) past the least distance d
    s, ties = SETS[name]
    X = np.vstack([data.draw(_rows(s.dim))] + ([ties] if ties else []))
    P = s.project_many(X)
    assert np.max(np.abs(s.project_many(P) - P)) <= 1e-14, X
    D = s.distance_many(X)
    assert np.all(np.abs(D - row_norms(X - P)) <= TIE_TOL * np.maximum(1.0, D)), X


def _operators():
    cross, diag = presets.cross_and_diagonal()
    circle, line = presets.circle_and_line()
    ball, line_iii = presets.line_and_ball()[::-1]  # example-iii-dr's pair
    # every set variant meets a step
    return {"map": AlternatingProjections(circle, line), "dr": DouglasRachford(cross, diag),
            "dr-ball": DouglasRachford(ball, line_iii), "map-kinked": AlternatingProjections(KinkedRegion(), line)}


@pytest.mark.parametrize("name", sorted(_operators()))
def test_step_many_matches_per_point_formula(name):
    op = _operators()[name]
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(scale=1.5, size=(200, 2)), [[0.0, 0.0], [0.7, 0.7], 2.0 * BISECTOR]])
    Y = op.step_many(X)
    for x, y in zip(X, Y):
        assert same_bits(y, ref_step(op, x)), (x, y)
        assert same_bits(op.step(x), y) and same_bits(op.apply(x).selected, y)
    # the same rows cycled to either side of the tile cut
    for m in TILE_CUT:
        Xm = np.resize(X, (m, 2))
        assert same_bits(op.step_many(Xm), [ref_step(op, x) for x in Xm]), m


def _branching_operators():
    cross, _ = presets.cross_and_diagonal()
    circle, _ = presets.circle_and_line()
    return {"map": AlternatingProjections(circle, cross), "dr": DouglasRachford(KinkedRegion(), cross)}


def _listed_branches(op, x):
    """The output rows ``_stages`` lists for one point, the first
    projection's branches outermost as nested loops list them, deduplicated
    and sorted: of two branches that sort as equal, the first listed is kept."""
    Y = op._stages(x[None], _listed)[1][..., 0, :]
    Y = Y.transpose(tuple(range(Y.ndim - 2, -1, -1)) + (Y.ndim - 1,))
    return _dedup_sorted(list(Y.reshape(-1, op.dim)))


@pytest.mark.parametrize("name", sorted(_branching_operators()))
def test_branch_apply_matches_nested_loops(name):
    # the cross's bisector, the kinked region's, the circle's center and
    # random points
    op = _branching_operators()[name]
    rng = np.random.default_rng(13)
    X = np.vstack([[[0.7, 0.7], [-0.7, 0.7], 2.0 * BISECTOR, [0.0, 0.0]], rng.normal(scale=1.5, size=(100, 2))])
    for x in X:
        got, ref = _listed_branches(op, x), ref_branch_apply(op, x)
        assert same_bits(got, ref), (x, got, ref)
    assert max(len(_listed_branches(op, x)) for x in X[:4]) > 1


@pytest.mark.parametrize("name", sorted(SETS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reflect_branches_are_twice_the_projection_branches_less_x(name, data):
    s, ties = SETS[name]
    X = np.vstack([data.draw(_rows(s.dim))] + ([ties] if ties else []))
    for x in X:
        out, slots = s.project(x), s.reflect(x[None])[:, 0]
        # slot 0 is the selected branch, and a row with fewer branches than slots repeats it
        distinct = [r for k, r in enumerate(slots) if not any(same_bits(r, q) for q in slots[:k])]
        assert same_bits(slots[0], 2.0 * out.selected - x), x
        assert same_bits(distinct, [2.0 * p - x for p in out.branches]), x


def _dr_pairs():
    cross, diag = presets.cross_and_diagonal()
    circle, line = presets.circle_and_line()
    corner_line = AffineSubspace.from_span([0.0, 0.0], [[1.0, -0.5]])
    return {
        "cross-diagonal": (cross, diag, [[0.7, 0.7], [-0.7, 0.7], [0.0, 0.0]]),
        "sphere-line": (circle, line, [[0.0, 0.0], [0.0, HALF_SQRT2], [0.0, -HALF_SQRT2]]),
        "kinked-line": (KinkedRegion(), corner_line, [2.0 * BISECTOR, 0.5 * BISECTOR, [0.0, 0.0]]),
    }


@pytest.mark.parametrize("name", sorted(_dr_pairs()))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dr_two_forms_agree_on_ties(name, data):
    a, b, ties = _dr_pairs()[name]
    X = np.vstack([data.draw(_rows(2)), ties])
    assert dr_two_forms_agree(a, b, X).all(), X
    assert dr_two_forms_agree(b, a, X).all(), X


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
    # one iterate_many over these starts, the preset's and 200 more, with
    # the budget and with one that cuts the longest runs short
    starts = np.vstack([starts, cfg.start.points(cfg.regularity.seed), region.sample(200, 12)])
    longest = max(len(t) - 1 for t in iterate_many(op, starts, sol, **budget))
    kinds, ended = set(), set()
    for max_iters in (budget["max_iters"], longest // 2):
        traces = iterate_many(op, starts, sol, max_iters, budget["tol"])
        spans = _blocks(op, starts, sol, max_iters, budget["tol"])
        for x0, trace in zip(starts, traces):
            alone = iterate(op, x0, sol, max_iters, budget["tol"])
            for field in ("iterates", "dist_to_a", "dist_to_b", "dist_to_s", "step_norms"):
                assert same_bits(getattr(trace, field), getattr(alone, field)), field
            assert trace.stop_reason == alone.stop_reason
            # the start's distance, not the one the loop overwrites as the row stops
            assert same_bits(trace.dist_to_s[0], sol.distance(x0))
            used = len(trace) - 1
            kinds.add("no step" if used == 0 else trace.stop_reason)
            if any(first <= used < last for first, last in spans):
                kinds.add("inside a block")
            ended.add(next(k for k, (_, last) in enumerate(spans) if used <= last))  # its block
    assert {"no step", "inside a block", "max_iters"} <= kinds and len(ended) >= 4


def test_one_batch_mixes_every_stop_reason():
    # x -> 4 P(x) - 3 x for the unit ball: interior points are fixed, and
    # outside the radius maps as r -> |4 - 3 r|
    ball = Ball([0.0, 0.0], 1.0)
    op = PointMap(2, lambda x, P: 2.0 * (2.0 * P(ball, x) - x) - x)
    sol = SolutionSet((ball,), [0.0, 0.0])
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
    op = PointMap(2, lambda x, P: P(axis, x))
    sol = SolutionSet((axis,), [0.0, 0.0])
    starts = np.array([[2e12, 0.0], [1e-9 * (1 - 2e-15), 1e-16], [3.0, 1.0]])
    stops = _assert_batch_matches_reference(op, starts, sol, max_iters=10, tol=1e-9)
    assert list(stops) == ["divergence", "tolerance", "stagnation"]


@pytest.mark.parametrize("name", ITERATING_PRESETS)
def test_trace_distances_are_the_set_distances(name):
    # the trace CSV's dist_A and dist_B columns, from the first start as
    # run_experiment writes them
    cfg = presets.preset(name)
    sol, op = cfg.solution_set(), cfg.operator()
    a, b = op.a, op.b
    x0 = cfg.start.points(cfg.regularity.seed)[0]
    trace = iterate(op, x0, sol, max_iters=min(cfg.budget.max_iters, 2000), tol=cfg.budget.tol)
    for s, column in ((a, trace.dist_to_a), (b, trace.dist_to_b)):
        assert same_bits(column, [s.distance_many(x[None])[0] for x in trace.iterates])
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
    starts = cfg.start.points(cfg.regularity.seed)[:5]
    many = iterate_many(op, starts, sol, max_iters=max_iters, tol=cfg.budget.tol)
    for x0, batched in zip(starts, many):
        xs, ds, steps, stop = reference_iterate(op, x0, sol, max_iters, cfg.budget.tol)
        for trace in (iterate(op, x0, sol, max_iters=max_iters, tol=cfg.budget.tol), batched):
            assert trace.stop_reason == stop
            assert same_bits(trace.iterates, xs) and same_bits(trace.dist_to_s, ds)
            assert same_bits(trace.step_norms, steps)


# ---------------------------------------------------------------------------
# block boundaries of the loop
# ---------------------------------------------------------------------------

AXIS = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
ORIGIN_SOL = SolutionSet((AXIS,), [0.0, 0.0])


def _shrink(w):
    """``x -> w x``."""
    return PointMap(2, lambda x, P: w * x)


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


class _FiniteOnly(AffineSubspace):
    """An affine set whose ``distance_many`` raises on a non-finite row."""

    def distance_many(self, X):
        if not np.isfinite(X).all():
            raise ValueError("non-finite row")
        return super().distance_many(X)


class _Squaring(FixedPointOperator):
    """``x -> |x| x``: the norm squares on every step.  A block never runs
    past a stop by more steps than the row took to reach it, so only
    growth faster than geometric can overflow inside one."""

    def __init__(self):
        self.dim = 2

    def _stages(self, X):
        return {}, row_norms(X)[:, None] * X

    def point_step(self, x):
        return float(np.linalg.norm(x)) * x


def test_row_overflowing_past_its_stop_stays_out_of_the_distances():
    # from 1.2 the norm is 1.2**(2**n): past DIVERGENCE_NORM on step 8 and
    # infinite from step 12, inside the block of steps 8..15 of a batch of
    # one.  The solution set's exact form rejects non-finite points
    far = AffineSubspace([0.0, 5.0])
    sol = SolutionSet((far,), [0.0, 5.0], _FiniteOnly(far.offset))
    op, x0 = _Squaring(), np.array([[1.2, 0.0]])
    finite = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _advance(op, x0, sol, 100, 1e-9, lambda n, xs, ds, steps: finite.append(np.isfinite(xs).all()))
        stops = _assert_batch_matches_reference(op, x0, sol, 100, 1e-9)
    assert list(stops) == ["divergence"] and not all(finite)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
