"""The batched estimators against a per-point reference.

The reference below is the per-sample loop the estimators used before they
were vectorized: proximal cone components built point by point with
``complement_basis``, one supremum of alignments per sample, and for ``c``
the components collected point by point.  It lives only here.  The batched
code orders some sums differently, so values may move by a few ulps; the
bound is 1e-15 absolute on constants that lie in [0, 1].

The supremum kernel prunes pairs that cannot raise the supremum; the last
section holds it to ``ref_sup_alignment``, which compares every pair in the
same arithmetic, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import batched_generators, ref_sup_alignment
from projfeas.linalg import complement_basis, largest_principal_cosine
from projfeas import regularity
from projfeas.presets import circle_and_line, cross_and_diagonal, line_and_ball
from projfeas.regularity import estimate_c, estimate_pair_regularity, estimate_subregularity
from projfeas.sampling import on_set_points
from projfeas.sets import (
    MEMBERSHIP_TOL,
    AffineSubspace,
    Ball,
    KinkedRegion,
    NormalGroup,
    Sphere,
    UnionOfSubspaces,
)
from projfeas.solution import SolutionSet, point_set_solution

HALF_SQRT2 = math.sqrt(2.0) / 2.0
ULP_BOUND = 1e-15


# ---------------------------------------------------------------------------
# per-point reference
# ---------------------------------------------------------------------------


def reference_components(s, x):
    """Proximal normal cone at ``x`` as (rays, subspaces), point by point."""
    dim = s.dim
    if isinstance(s, AffineSubspace):
        comp = complement_basis(s.basis, dim)
        return [], ([comp] if comp.shape[0] else [])
    if isinstance(s, Ball):
        r = float(np.linalg.norm(x - s.center))
        return ([] if r < s.radius - MEMBERSHIP_TOL else [(x - s.center) / r]), []
    if isinstance(s, Sphere):
        u = x - s.center
        return [], [(u / np.linalg.norm(u))[None, :]]
    if isinstance(s, UnionOfSubspaces):
        holding = [f for f in s.frames if f.contains(x, MEMBERSHIP_TOL)]
        if len(holding) != 1:
            return [], []
        comp = complement_basis(holding[0].basis, dim)
        return [], ([comp] if comp.shape[0] else [])
    if isinstance(s, KinkedRegion):
        if float(np.linalg.norm(x)) <= MEMBERSHIP_TOL:
            return [], []
        if x[0] < 0 and abs(x[1] + x[0]) <= MEMBERSHIP_TOL:
            return [KinkedRegion.EDGE_NEG_NORMAL], []
        if x[0] > 0 and abs(x[1]) <= MEMBERSHIP_TOL:
            return [KinkedRegion.EDGE_POS_NORMAL], []
        return [], []
    raise NotImplementedError(type(s).__name__)


def reference_generators(s, x):
    rays, subs = reference_components(s, x)
    return list(rays) + [g for W in subs for g in np.vstack([W, -W])]


def reference_sup_alignment(x, targets, rays, subspaces):
    diffs = targets - x
    norms = np.linalg.norm(diffs, axis=1)
    mask = norms > 1e-14
    if not mask.any():
        return 0.0
    U = diffs[mask] / norms[mask][:, None]
    best = 0.0
    for g in rays:
        best = max(best, float(np.max(U @ g)))
    for W in subspaces:
        best = max(best, float(np.max(np.linalg.norm(U @ W.T, axis=1))))
    return best


def reference_sup(s, X, targets):
    best = 0.0
    for x in X:
        rays, subs = reference_components(s, x)
        if rays or subs:
            best = max(best, reference_sup_alignment(x, targets, rays, subs))
    return float(np.clip(best, 0.0, 1.0))


def reference_subregularity(s, sol, delta, samples, seed):
    X = on_set_points(s, sol.witness, delta, samples, seed)
    return reference_sup(s, X, sol.sample_points(delta, max(64, samples // 8), seed + 1))


def reference_pair_regularity(s, anchor, delta, samples, seed):
    X = on_set_points(s, np.asarray(anchor, dtype=float), delta, samples, seed)
    return reference_sup(s, X, X)


def reference_collect(s, points):
    rays, subs = [], []
    for x in points:
        r, w = reference_components(s, x)
        rays.extend(r)
        subs.extend(w)
    return (np.vstack(rays) if rays else np.zeros((0, s.dim))), subs


def reference_c(a, b, anchor, delta, samples, seed):
    anchor = np.asarray(anchor, dtype=float)
    Ra, subs_a = reference_collect(a, on_set_points(a, anchor, delta, samples, seed))
    Rb, subs_b = reference_collect(b, on_set_points(b, anchor, delta, samples, seed + 1))
    best = 0.0
    if Ra.shape[0] and Rb.shape[0]:
        best = max(best, float(np.max(-(Ra @ Rb.T))))
    for W in subs_b:
        if Ra.shape[0]:
            best = max(best, float(np.max(np.linalg.norm(Ra @ W.T, axis=1))))
    for W in subs_a:
        if Rb.shape[0]:
            best = max(best, float(np.max(np.linalg.norm(Rb @ W.T, axis=1))))
    # two lines meet at the principal cosine |u . v|; wider pairs take the SVD
    lines_a = [W[0] for W in subs_a if W.shape[0] == 1]
    lines_b = [W[0] for W in subs_b if W.shape[0] == 1]
    if lines_a and lines_b:
        best = max(best, float(np.max(np.abs(np.array(lines_a) @ np.array(lines_b).T))))
    for Wa in subs_a:
        for Wb in subs_b:
            if Wa.shape[0] > 1 or Wb.shape[0] > 1:
                best = max(best, largest_principal_cosine(Wa, Wb))
    return float(np.clip(best, 0.0, 1.0))


# ---------------------------------------------------------------------------
# the five variants
# ---------------------------------------------------------------------------


def _variant_cases():
    """(variant, set, solution set, delta) with a solution set inside it."""
    line, ball = line_and_ball()
    cross, diag = cross_and_diagonal()
    circle, circle_line = circle_and_line()
    plane = AffineSubspace.from_span([0.0, 0.0, 1.0], [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    kink = KinkedRegion()
    return [
        ("Affine", plane, SolutionSet((plane,), [0.0, 0.0, 1.0]), 1.0),
        ("Ball", ball, SolutionSet((line, ball), [0.0, 0.0]), 1.0),
        (
            "Sphere",
            circle,
            point_set_solution(
                (circle, circle_line),
                [np.array([HALF_SQRT2, HALF_SQRT2]), np.array([-HALF_SQRT2, HALF_SQRT2])],
            ),
            0.5,
        ),
        ("Union", cross, SolutionSet((cross, diag), [0.0, 0.0]), 1.0),
        ("Kinked", kink, SolutionSet((kink,), [0.0, 0.0]), 1.0),
        # near the corner, samples of each edge align positively with samples
        # of the other edge only slightly above them along the edge normal
        ("Kinked-off-corner", kink, SolutionSet((kink,), [0.02, 0.0]), 0.05),
    ]


VARIANT_CASES = _variant_cases()
IDS = [case[0] for case in VARIANT_CASES]


@pytest.mark.parametrize("samples", [256, 512])
@pytest.mark.parametrize("variant, s, sol, delta", VARIANT_CASES, ids=IDS)
def test_subregularity_matches_reference(variant, s, sol, delta, samples):
    got = estimate_subregularity(s, sol, delta, samples=samples, seed=3)
    want = reference_subregularity(s, sol, delta, samples, 3)
    assert abs(got - want) <= ULP_BOUND, (variant, got, want)


@pytest.mark.parametrize("samples", [256, 512])
@pytest.mark.parametrize("variant, s, sol, delta", VARIANT_CASES, ids=IDS)
def test_pair_regularity_matches_reference(variant, s, sol, delta, samples):
    got = estimate_pair_regularity(s, sol.witness, delta, samples=samples, seed=5)
    want = reference_pair_regularity(s, sol.witness, delta, samples, 5)
    assert abs(got - want) <= ULP_BOUND, (variant, got, want)


@pytest.mark.parametrize("variant, s, sol, delta", VARIANT_CASES, ids=IDS)
def test_block_size_does_not_change_estimates(monkeypatch, variant, s, sol, delta):
    # each pair is computed elementwise, so the blocking cannot move a bit
    want = (
        estimate_subregularity(s, sol, delta, samples=256, seed=3),
        estimate_pair_regularity(s, sol.witness, delta, samples=256, seed=5),
    )
    monkeypatch.setattr(regularity, "BLOCK_PAIRS", 97)
    got = (
        estimate_subregularity(s, sol, delta, samples=256, seed=3),
        estimate_pair_regularity(s, sol.witness, delta, samples=256, seed=5),
    )
    assert got == want, variant


def _c_cases():
    line, ball = line_and_ball()
    cross, diag = cross_and_diagonal()
    circle, circle_line = circle_and_line()
    through_origin = AffineSubspace.from_span([0.0, 0.0], [[1.0, -2.0]])
    witness = np.array([HALF_SQRT2, HALF_SQRT2])
    return [
        ("Affine-Ball", line, ball, np.zeros(2), 1.0),
        ("Ball-Affine", Ball([0.0, 0.5], 1.0), line, np.array([math.sqrt(0.75), 0.0]), 0.5),
        ("Sphere-Affine", circle, circle_line, witness, 0.1),
        ("Sphere-Ball", circle, Ball([1.0, 0.0], 1.0), np.array([0.5, math.sqrt(0.75)]), 0.2),
        ("Union-Affine", cross, diag, np.zeros(2), 1.0),
        ("Sphere-Union", Sphere([1.0, 1.0], math.sqrt(2.0)), cross, np.zeros(2), 0.5),
        ("Kinked-Affine", KinkedRegion(), through_origin, np.zeros(2), 1.0),
        ("Kinked-Ball", KinkedRegion(), Ball([0.0, -1.0], 1.0), np.zeros(2), 1.0),
        # the kinked region's two ray groups as the second cone too
        ("Affine-Kinked", through_origin, KinkedRegion(), np.zeros(2), 1.0),
        ("Ball-Kinked", Ball([0.0, -1.0], 1.0), KinkedRegion(), np.zeros(2), 1.0),
    ]


@pytest.mark.parametrize("samples", [256, 512])
@pytest.mark.parametrize("name, a, b, anchor, delta", _c_cases(), ids=[c[0] for c in _c_cases()])
def test_c_matches_reference(name, a, b, anchor, delta, samples):
    got = estimate_c(a, b, anchor, delta, samples=samples, seed=11)
    want = reference_c(a, b, anchor, delta, samples, 11)
    assert abs(got - want) <= ULP_BOUND, (name, got, want)


@pytest.mark.parametrize("name, a, b, anchor, delta", _c_cases(), ids=[c[0] for c in _c_cases()])
def test_block_size_does_not_change_c(monkeypatch, name, a, b, anchor, delta):
    # rays against a stack of per-row lines (Sphere-Ball, Sphere-Union) and
    # stacks against stacks are walked in chunks of the stack
    want = estimate_c(a, b, anchor, delta, samples=256, seed=11)
    monkeypatch.setattr(regularity, "BLOCK_PAIRS", 97)
    assert estimate_c(a, b, anchor, delta, samples=256, seed=11) == want, name


# ---------------------------------------------------------------------------
# batched components, row by row
# ---------------------------------------------------------------------------


def _coords(n, lo=-2.0, hi=2.0):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n)


@st.composite
def sets_and_samples(draw):
    """A random set of one of the five variants with chart samples near a
    random anchor."""
    variant = draw(st.sampled_from(["Affine", "Ball", "Sphere", "Union", "Kinked"]))
    dim = 2 if variant == "Kinked" else draw(st.integers(2, 4))
    center = np.array(draw(_coords(dim)))
    if variant == "Affine":
        # Gaussian spanning vectors: well conditioned, so the frame is orthonormal
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        s = AffineSubspace.from_span(center, rng.normal(size=(draw(st.integers(0, dim - 1)), dim)))
    elif variant in ("Ball", "Sphere"):
        radius = draw(st.floats(0.25, 2.0))
        s = (Ball if variant == "Ball" else Sphere)(center, radius)
    elif variant == "Union":
        s = UnionOfSubspaces.cross(dim)
    else:
        s = KinkedRegion()
    anchor = center + np.array(draw(_coords(dim, -1.0, 1.0)))
    delta = draw(st.floats(0.5, 3.0))
    X = on_set_points(s, anchor, delta, draw(st.integers(1, 64)), draw(st.integers(0, 1000)))
    return s, X


@settings(max_examples=60, deadline=None)
@given(sets_and_samples())
def test_normal_components_match_per_point_normals(case):
    s, X = case
    cone = s.normal_components(X)
    assert all(0 <= g.rows.min() and g.rows.max() < X.shape[0] for g in cone)
    for i, x in enumerate(X):
        batched = batched_generators(cone, i)
        for per_point in (reference_generators(s, x), batched_generators(s.normal_components(x[None]), 0)):
            assert len(batched) == len(per_point)
            for g, h in zip(batched, per_point):
                assert np.allclose(g, h, rtol=0.0, atol=ULP_BOUND)


# ---------------------------------------------------------------------------
# the pruned supremum kernel against every pair
# ---------------------------------------------------------------------------


def _unit_rows(rng, n, dim):
    V = rng.normal(size=(n, dim))
    return V / np.linalg.norm(V, axis=1)[:, None]


@st.composite
def alignment_cases(draw):
    """Sample rows, one normal group (shared or per-row), and targets in 2-4
    D: random points, copies of rows (coincident pairs), repeated targets,
    and targets along a few rays from a row, whose pairs align equally in
    exact arithmetic, so that with one-row blocks they lie on the bound."""
    dim = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["one-sided", "span", "own-rays", "own-lines"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 80))
    X = rng.uniform(-1.0, 1.0, size=(n, dim)) * 2.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):  # rows on a segment, as on an edge of the kinked region
        X = X[:1] + rng.uniform(-1.0, 1.0, size=(n, 1)) * rng.normal(size=dim)
    parts = [rng.uniform(-1.5, 1.5, size=(draw(st.integers(0, 150)), dim))]
    parts.append(X[rng.integers(0, n, size=draw(st.integers(0, 10)))])
    start = X[rng.integers(0, n)]
    for v in _unit_rows(rng, draw(st.integers(0, 3)), dim):
        parts.append(start + rng.uniform(0.0, 2.0, size=(draw(st.integers(1, 30)), 1)) * v)
    T = np.vstack(parts)
    if T.shape[0]:
        T = np.vstack([T, T[rng.integers(0, T.shape[0], size=draw(st.integers(0, 5)))]])
    if kind == "one-sided":
        group = NormalGroup(_unit_rows(rng, 1, dim), np.flatnonzero(rng.random(n) < 0.8), one_sided=True)
    elif kind == "span":
        basis = np.linalg.qr(rng.normal(size=(dim, draw(st.integers(1, dim)))))[0].T
        group = NormalGroup(basis, np.arange(n))
    else:  # one ray, or one line, per row
        own, rows = _unit_rows(rng, n, dim), np.flatnonzero(rng.random(n) < 0.8)
        group = NormalGroup(own[rows][:, None], rows, one_sided=kind == "own-rays")
    cone = (group,) if group.rows.size else ()
    return X, cone, T


@settings(max_examples=300, deadline=None)
@given(alignment_cases(), st.sampled_from([1, 3, 64]))
def test_pruned_sup_alignment_equals_every_pair(case, block_rows):
    X, cone, T = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "PRUNE_ROWS", block_rows)
        assert regularity._sup_alignment(X, cone, T) == ref_sup_alignment(X, cone, T)


@pytest.mark.parametrize("kind", ["one-sided", "span"])
def test_pruned_sup_alignment_keeps_ties_on_the_bound(monkeypatch, kind):
    # one-row blocks: the bound of a target is its pair's alignment in exact
    # arithmetic.  Targets on one ray from the row tie there, 2**-20 away,
    # so the bound's <w, t> - <w, x> cancels and rounds far more than the
    # pair values do; only the slack keeps every tied target in play
    monkeypatch.setattr(regularity, "PRUNE_ROWS", 1)
    rng = np.random.default_rng(0)
    bad = []
    for case in range(64):
        dim = int(rng.integers(2, 5))
        x = rng.uniform(-1.0, 1.0, size=dim)
        if kind == "one-sided":
            group = NormalGroup(_unit_rows(rng, 1, dim), np.arange(1), one_sided=True)
        else:
            basis = np.linalg.qr(rng.normal(size=(dim, int(rng.integers(1, dim)))))[0].T
            group = NormalGroup(basis, np.arange(1))
        v = _unit_rows(rng, 1, dim)[0]
        v = -v if v @ group.basis[0] < 0 else v
        T = x + rng.uniform(0.5, 1.0, size=(64, 1)) * 2.0**-20 * v
        X = x[None, :]
        cone = (group,)
        if regularity._sup_alignment(X, cone, T) != ref_sup_alignment(X, cone, T):
            bad.append(case)
    assert bad == []


@pytest.mark.parametrize("variant, s, sol, delta", VARIANT_CASES, ids=IDS)
def test_pruned_sup_alignment_equals_every_pair_on_estimator_samples(variant, s, sol, delta):
    X = on_set_points(s, sol.witness, delta, 256, 5)
    cone = s.normal_components(X)
    for T in (X, sol.sample_points(delta, 64, 4)):
        assert regularity._sup_alignment(X, cone, T) == ref_sup_alignment(X, cone, T), variant


def _scaling_cases():
    circle, _ = circle_and_line()
    _, ball = line_and_ball()
    cross, _ = cross_and_diagonal()
    plane = AffineSubspace.from_span([0.0, 0.0, 1.0], [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    return [
        ("one-sided", KinkedRegion(), np.zeros(2), 1.0),
        ("span", cross, np.zeros(2), 1.0),
        ("span-affine", plane, np.array([0.0, 0.0, 1.0]), 1.0),
        ("own-rays", ball, np.array([0.0, 0.0]), 1.0),
        ("own-lines", circle, np.array([HALF_SQRT2, HALF_SQRT2]), 0.5),
    ]


@pytest.mark.parametrize("kind, s, anchor, delta", _scaling_cases(), ids=[c[0] for c in _scaling_cases()])
def test_sup_alignment_is_invariant_under_power_of_two_scaling(kind, s, anchor, delta):
    # scaling by 2**k is exact, so every pair value, the coincidence test and
    # the pruning bound scale with the points and the supremum moves no bit
    X = on_set_points(s, anchor, delta, 128, 5)
    cone = s.normal_components(X)
    T = np.vstack([X, X[::7] + 1e-3])
    want = regularity._sup_alignment(X, cone, T)
    assert want > 0.0, kind
    bad = [k for k in range(-60, 61) if regularity._sup_alignment(2.0**k * X, cone, 2.0**k * T) != want]
    assert bad == [], kind


def test_kinked_pair_estimate_evaluates_few_pairs(monkeypatch):
    # the pair estimator of kinked-regularity at the presets' budget: a
    # bound that loosens shows here as pairs evaluated, before it shows as
    # time.  The candidates are the pairs whose target is not below every
    # row of its edge along the edge's normal: only those can align above 0
    kink = KinkedRegion()
    X = on_set_points(kink, np.zeros(2), 1.0, 4096, 7)
    cone = kink.normal_components(X)
    assert not any(g.per_row for g in cone)
    candidates = 0
    for g in cone:
        height = X[g.rows] @ g.basis[0]
        candidates += g.rows.shape[0] * int(np.sum(X @ g.basis[0] >= height.min()))
    evaluated = []
    block_sup = regularity._block_sup

    def counting(rows, targets, *args):
        evaluated.append(rows.shape[0] * targets.shape[0])
        return block_sup(rows, targets, *args)

    monkeypatch.setattr(regularity, "_block_sup", counting)
    got = estimate_pair_regularity(kink, np.zeros(2), 1.0, 4096, 7)
    assert got.hex() == "0x1.6a08e6684e3f9p-1"
    assert sum(evaluated) <= 0.02 * candidates, (sum(evaluated), candidates)
