import math

import numpy as np
import pytest

from projfeas.sets import (
    AffineSubspace,
    Ball,
    KinkedRegion,
    Sphere,
    UnionOfSubspaces,
)


def kink_boundary_grid(tmax=6.0, n=60001):
    """Dense grid of boundary points of the kinked region (both edges plus
    the corner), the independent oracle for its projector."""
    t = np.linspace(0.0, tmax, n)
    neg = np.column_stack([-t, t])
    pos = np.column_stack([t, np.zeros_like(t)])
    return np.vstack([neg, pos])


def oracle_kink_project(x, grid=None):
    grid = kink_boundary_grid() if grid is None else grid
    d = np.linalg.norm(grid - np.asarray(x, float), axis=1)
    i = np.argmin(d)
    return grid[i], float(d[i])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_distance_line():
    line = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    assert line.distance([3.0, 4.0]) == pytest.approx(4.0)


def test_distance_sphere():
    s = Sphere([0.0, 0.0], 1.0)
    assert s.distance([2.0, 0.0]) == pytest.approx(1.0)


def test_distance_ball_below_tangency():
    b = Ball([0.0, 1.0], 1.0)
    # |x - center| = 2, minus the radius
    assert b.distance([0.0, -1.0]) == pytest.approx(1.0)


def test_distance_dimension_mismatch():
    line = AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        line.distance([1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_union_projection_unique():
    axes = UnionOfSubspaces.cross(2)
    out = axes.project([2.0, 1.0])
    np.testing.assert_allclose(out.selected, [2.0, 0.0])
    assert out.branch_count == 1


def test_union_projection_symmetric_tie():
    axes = UnionOfSubspaces.cross(2)
    out = axes.project([1.0, 1.0])
    assert out.branch_count == 2
    np.testing.assert_allclose(out.selected, [1.0, 0.0])  # lowest frame index
    got = sorted(tuple(b) for b in out.branches)
    assert got == [(0.0, 1.0), (1.0, 0.0)]


def test_sphere_center_singularity():
    s = Sphere([0.0, 0.0], 1.0)
    out = s.project([0.0, 0.0])
    assert out.branch_count == math.inf
    np.testing.assert_allclose(out.selected, [1.0, 0.0])
    assert out.distance == pytest.approx(1.0)


def test_ball_projection_interior_and_exterior():
    b = Ball([0.0, 0.0], 1.0)
    inside = b.project([0.5, 0.0])
    np.testing.assert_allclose(inside.selected, [0.5, 0.0])
    assert inside.distance == 0.0
    outside = b.project([2.0, 0.0])
    np.testing.assert_allclose(outside.selected, [1.0, 0.0])


def test_kink_projection_against_grid_oracle():
    k = KinkedRegion()
    grid = kink_boundary_grid()
    rng = np.random.default_rng(4)
    for _ in range(120):
        x = rng.uniform(-3, 3, size=2)
        out = k.project(x)
        if k.contains(x, tol=0.0):
            np.testing.assert_array_equal(out.selected, x)
            continue
        p_oracle, d_oracle = oracle_kink_project(x, grid)
        assert out.distance == pytest.approx(d_oracle, abs=2e-4)
        assert np.linalg.norm(out.selected - p_oracle) <= 2e-4 + 1e-12


def test_kink_boundary_point_projects_to_itself():
    # (-1, 1) satisfies x2 <= -x1, so it lies on the boundary edge and is
    # its own nearest point (the grid oracle agrees)
    k = KinkedRegion()
    x = np.array([-1.0, 1.0])
    assert k.contains(x, tol=0.0)
    out = k.project(x)
    np.testing.assert_array_equal(out.selected, x)
    assert out.distance == 0.0
    p_oracle, d_oracle = oracle_kink_project(x)
    assert d_oracle == pytest.approx(0.0, abs=1e-12)


def test_kink_projection_tie_on_bisector():
    # points along the direction bisecting the two edge normals have two
    # nearest boundary points
    k = KinkedRegion()
    ang = math.radians(67.5)
    x = 2.0 * np.array([math.cos(ang), math.sin(ang)])
    out = k.project(x)
    assert out.branch_count == 2
    # the first listed branch selected: the one on the slanted edge
    assert out.selected[0] < 0


def test_projection_optimality_sampled():
    sets_and_samplers = [
        (UnionOfSubspaces.cross(2), lambda rng: rng.normal(size=2)),
        (KinkedRegion(), lambda rng: rng.uniform(-2, 2, size=2)),
        (Sphere([0.0, 0.0], 1.0), lambda rng: rng.normal(size=2)),
        (Ball([0.0, 1.0], 1.0), lambda rng: rng.normal(size=2)),
    ]
    rng = np.random.default_rng(9)
    for s, sampler in sets_and_samplers:
        members = []
        for _ in range(400):  # sampled members of s
            z = sampler(rng)
            members.append(s.project(z).selected)
        for _ in range(60):
            x = sampler(rng)
            out = s.project(x)
            for p in out.branches:
                assert np.linalg.norm(x - p) <= out.distance + 1e-10
            for y in members:
                assert out.distance <= np.linalg.norm(x - y) + 1e-9


def test_projection_idempotence():
    rng = np.random.default_rng(12)
    for s in [
        UnionOfSubspaces.cross(2),
        KinkedRegion(),
        Sphere([0.0, 0.0], 1.0),
        Ball([0.0, 1.0], 1.0),
        AffineSubspace.from_span([0.0, 1.0], [[1.0, 1.0]]),
    ]:
        for _ in range(40):
            x = rng.normal(size=2) * 2
            p = s.project(x).selected
            again = s.project(p)
            assert again.distance <= 1e-12
            np.testing.assert_allclose(again.selected, p, atol=1e-12)


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------


def test_reflect_across_diagonal_swaps_coordinates():
    diag = AffineSubspace.from_span([0.0, 0.0], [[1.0, 1.0]])
    out = diag.reflect([1.0, 0.0])
    np.testing.assert_allclose(out.selected, [0.0, 1.0], atol=1e-12)


def test_reflect_ball_interior_point_fixed():
    b = Ball([0.0, 0.0], 1.0)
    out = b.reflect([0.5, 0.0])
    np.testing.assert_allclose(out.selected, [0.5, 0.0])


def test_reflect_union_tie_branches():
    axes = UnionOfSubspaces.cross(2)
    out = axes.reflect([1.0, 1.0])
    got = sorted(tuple(np.round(b, 12)) for b in out.branches)
    assert got == [(-1.0, 1.0), (1.0, -1.0)]


def test_reflection_isometry_on_affine():
    rng = np.random.default_rng(21)
    sub = AffineSubspace.from_span([1.0, -2.0, 0.5], rng.normal(size=(2, 3)))
    for _ in range(50):
        x = rng.normal(size=3) * 3
        c = sub.project(rng.normal(size=3)).selected  # a member point
        r = sub.reflect(x).selected
        assert abs(np.linalg.norm(r - c) - np.linalg.norm(x - c)) <= 1e-10


def test_firm_nonexpansiveness_equality_on_affine():
    rng = np.random.default_rng(22)
    sub = AffineSubspace.from_span([0.0, 1.0, 0.0], rng.normal(size=(2, 3)))
    for _ in range(50):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        px = sub.project(x).selected
        py = sub.project(y).selected
        lhs = np.linalg.norm(px - py) ** 2 + np.linalg.norm((x - px) - (y - py)) ** 2
        assert abs(lhs - np.linalg.norm(x - y) ** 2) <= 1e-9


def test_convex_projector_characterization():
    rng = np.random.default_rng(23)
    for s in [Ball([0.0, 1.0], 1.0), AffineSubspace.from_span([0.0, 0.0], [[1.0, 1.0]])]:
        for _ in range(50):
            x = rng.normal(size=2) * 2
            y = rng.normal(size=2) * 2
            px = s.project(x).selected
            py = s.project(y).selected
            assert np.linalg.norm(px - py) ** 2 <= np.dot(px - py, x - y) + 1e-9


# ---------------------------------------------------------------------------
# normal cones
# ---------------------------------------------------------------------------


def test_cross_normals_on_arm():
    axes = UnionOfSubspaces.cross(2)
    gens = axes.proximal_normals([1.0, 0.0])
    got = sorted(tuple(np.round(g, 12)) for g in gens)
    assert got == [(0.0, -1.0), (0.0, 1.0)]


def test_cross_normals_collapse_at_origin():
    axes = UnionOfSubspaces.cross(2)
    assert axes.proximal_normals([0.0, 0.0]) == []


def test_kink_normals_collapse_at_corner():
    assert KinkedRegion().proximal_normals([0.0, 0.0]) == []


def test_kink_normals_on_edges():
    k = KinkedRegion()
    (g_neg,) = k.proximal_normals([-1.0, 1.0])
    np.testing.assert_allclose(g_neg, np.array([1.0, 1.0]) / np.sqrt(2))
    (g_pos,) = k.proximal_normals([2.0, 0.0])
    np.testing.assert_allclose(g_pos, [0.0, 1.0])


def test_proximal_normals_membership_precondition():
    with pytest.raises(ValueError):
        Sphere([0.0, 0.0], 1.0).proximal_normals([2.0, 0.0])


def test_proximal_normal_inequality_convex():
    rng = np.random.default_rng(31)
    ball = Ball([0.0, 1.0], 1.0)
    for _ in range(40):
        z = ball.project(rng.normal(size=2) * 2).selected
        for v in ball.proximal_normals(z):
            for _ in range(20):
                y = ball.project(rng.normal(size=2) * 2).selected
                assert np.dot(v, y - z) <= 1e-9


def test_ball_interior_zero_cone():
    assert Ball([0.0, 0.0], 1.0).proximal_normals([0.1, 0.2]) == []


def test_kink_limiting_cone_at_corner_has_both_edge_normals():
    cone = KinkedRegion().limiting_normals([0.0, 0.0])
    assert all(g.one_sided for g in cone)
    np.testing.assert_allclose(np.vstack([g.basis for g in cone]),
                               [KinkedRegion.EDGE_NEG_NORMAL, KinkedRegion.EDGE_POS_NORMAL])


def test_cross_limiting_cone_at_crossing_has_both_normal_spaces():
    cross = UnionOfSubspaces.cross(2)
    assert cross.proximal_normals([0.0, 0.0]) == []
    cone = cross.limiting_normals([0.0, 0.0])
    assert not any(g.one_sided for g in cone)
    # the x-axis frame's normal space is the y-axis, and the other way round
    projectors = [g.basis.T @ g.basis for g in cone]
    np.testing.assert_allclose(projectors, [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])], atol=1e-12)

