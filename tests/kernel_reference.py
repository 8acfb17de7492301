"""References for the batched kernel and the sample generator.

The sets and operators write each formula once, over the rows of a point
array.  These are the formulas they had before that, on 1-D arrays: plain
matrix-vector products and ``np.linalg.norm`` of one point, the per-point
tie rule ``select_ties`` (lexicographic for the kinked region, first frame
for unions) and nested loops over each operator's branch sets; and
``ref_sup_alignment``, the estimators' supremum of alignments over every
sample x target pair, with no pair pruned; and ``ref_friedrichs_cosine``,
the Friedrichs cosine reduced modulo the intersection; and
``batched_generators``, one row's unit generators of a normal cone, the
list the cones were read as point by point.  ``ref_affine_chart``,
``ref_boundary_chart`` and ``ref_kinked_chart`` are the sampling charts as
they were before ``chart_coords``: the dyadic ladder one point at a time, and
the kinked region's radii read from a two-column Halton draw.  The sampling
references are the scipy forms that ``qmc_unit``, ``ball_points`` and
``_ndtri`` used before the package computed the scrambled Halton sequence
and the inverse normal CDF itself; only the tests import scipy.  Tests
compare the package against all of them bit for bit.  ``PointMap`` builds
a test operator from one formula and checks it through ``ref_step``.
"""

import csv
import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import norm, qmc

from projfeas.linalg import complement_basis, largest_principal_cosine, orthonormalize, subspace_intersection
from projfeas.operators import AlternatingProjections, DouglasRachford, FixedPointOperator
from projfeas.regularity import COINCIDENT, _block_sup, _dot, _norm
from projfeas.sampling import _in_ball, dyadic_ladder, qmc_unit
from projfeas.sets import (
    CENTER_TOL,
    INFINITE,
    TIE_TOL,
    AffineSubspace,
    Ball,
    KinkedRegion,
    ProjectionOutcome,
    Sphere,
    UnionOfSubspaces,
)


def _lex_smaller(p, q):
    for a, b in zip(p, q):
        if a < b - 1e-15:
            return True
        if a > b + 1e-15:
            return False
    return False


def select_ties(candidates, tie="lex"):
    """Deterministic outcome from (point, distance) candidates.

    Keeps every global minimizer within ``TIE_TOL`` slack.  Tie rule "lex"
    selects the lexicographically smallest branch; "order" selects the first
    candidate in input order (unions pass frames lowest index first).
    """
    dists = np.array([d for _, d in candidates])
    dmin = float(dists.min())
    window = TIE_TOL * max(1.0, dmin)
    kept = []
    for p, d in candidates:
        if d <= dmin + window:
            if not any(np.linalg.norm(p - q) <= 1e-12 * max(1.0, dmin) for q in kept):
                kept.append(p)
    selected = kept[0]
    if tie == "lex":
        for p in kept[1:]:
            if _lex_smaller(p, selected):
                selected = p
    return ProjectionOutcome(
        selected=selected,
        branches=tuple(kept),
        branch_count=len(kept),
        distance=dmin,
    )


def ref_frame(f, x):
    if f.dim_subspace == 0:
        return f.offset.copy()
    return f.offset + f.basis.T @ (f.basis @ (x - f.offset))


def ref_outcome(s, x):
    """The full ``ProjectionOutcome`` of one point."""
    if isinstance(s, AffineSubspace):
        p = ref_frame(s, x)
        return ProjectionOutcome(p, (p,), 1, float(np.linalg.norm(x - p)))
    if isinstance(s, UnionOfSubspaces):
        cands = [(p, float(np.linalg.norm(x - p))) for p in (ref_frame(f, x) for f in s.frames)]
        return select_ties(cands, tie="order")
    if isinstance(s, (Ball, Sphere)):
        r = float(np.linalg.norm(x - s.center))
        if isinstance(s, Ball) and r <= s.radius:
            return ProjectionOutcome(x.copy(), (x.copy(),), 1, 0.0)
        if isinstance(s, Sphere) and r <= CENTER_TOL * max(1.0, s.radius):
            p = s.center.copy()
            p[0] += s.radius
            return ProjectionOutcome(p, (p,), INFINITE, abs(r - s.radius))
        p = s.center + (s.radius / r) * (x - s.center)
        return ProjectionOutcome(p, (p,), 1, abs(r - s.radius))
    if isinstance(s, KinkedRegion):
        if s.contains(x, tol=0.0):
            return ProjectionOutcome(x.copy(), (x.copy(),), 1, 0.0)
        t = min((x[0] - x[1]) / 2.0, 0.0)
        cands = [np.array([t, -t]), np.array([max(x[0], 0.0), 0.0])]
        return select_ties([(p, float(np.linalg.norm(x - p))) for p in cands], tie="lex")
    raise TypeError(type(s))


def ref_project(s, x):
    """(selected branch, distance) of one point."""
    out = ref_outcome(s, x)
    return out.selected, out.distance


def ref_distance(s, x):
    return ref_project(s, x)[1]


def ref_sol_distance(sol, x):
    return ref_distance(sol.exact, x)


def ref_step(op, x):
    if hasattr(op, "point_step"):  # an operator defined by a test, with its own reference
        return op.point_step(x)
    if isinstance(op, AlternatingProjections):
        return ref_project(op.a, ref_project(op.b, x)[0])[0]
    if isinstance(op, DouglasRachford):
        z = ref_project(op.b, x)[0]
        return ref_project(op.a, 2.0 * z - x)[0] - z + x
    raise TypeError(type(op))


def _dedup_sorted(points):
    """``points`` sorted lexicographically, each dropped that lies within
    1e-12 of one kept before it."""
    out = []
    for p in sorted(points, key=lambda q: tuple(q)):
        if not any(np.linalg.norm(p - q) <= 1e-12 for q in out):
            out.append(p)
    return out


def ref_branch_apply(op, x):
    """All output branches of one point by nested loops over the branch
    sets, deduplicated and sorted."""
    if isinstance(op, AlternatingProjections):
        out = []
        for y in ref_outcome(op.b, x).branches:
            out.extend(ref_outcome(op.a, y).branches)
        return _dedup_sorted(out)
    if isinstance(op, DouglasRachford):
        out = []
        for z in ref_outcome(op.b, x).branches:
            for w in ref_outcome(op.a, 2.0 * z - x).branches:
                out.append(w - z + x)
        return _dedup_sorted(out)
    raise TypeError(type(op))


class PointMap(FixedPointOperator):
    """A test operator ``x -> f(x, P)``, with ``P(s, x)`` the projection onto
    a set ``s``: over rows through ``project_many``, and on one point
    (``point_step``, which ``ref_step`` calls) through ``ref_project``."""

    def __init__(self, dim, f):
        self.dim, self.f = dim, f

    def _stages(self, X):
        return {}, self.f(X, lambda s, Y: s.project_many(Y))

    def point_step(self, x):
        return self.f(x, lambda s, y: ref_project(s, y)[0])


def ref_trace_to_csv(trace, path):
    """The ``csv.writer`` loop that wrote trace CSVs before the chunked writer."""
    d = trace.iterates.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iter"] + [f"x_{i}" for i in range(d)] + ["dist_A", "dist_B", "dist_S", "step_norm"]
        )
        for n in range(len(trace)):
            step = f"{trace.step_norms[n]:.17g}" if n < trace.step_norms.size else ""
            writer.writerow(
                [n]
                + [f"{v:.17g}" for v in trace.iterates[n]]
                + [
                    f"{trace.dist_to_a[n]:.17g}",
                    f"{trace.dist_to_b[n]:.17g}",
                    f"{trace.dist_to_s[n]:.17g}",
                    step,
                ]
            )


def ref_qmc_unit(n, dim, seed):
    """scipy's Owen-scrambled Halton engine, as ``qmc_unit`` called it."""
    if n <= 0:
        return np.zeros((0, dim))
    return qmc.Halton(d=dim, scramble=True, seed=int(seed)).random(int(n))


def ref_ball_points(center, radius, n, seed):
    """``ball_points`` on ``ref_qmc_unit`` with ``norm.ppf`` for the Gaussian."""
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    u = ref_qmc_unit(n, d + 1, seed)
    g = norm.ppf(np.clip(u[:, :d], 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    dirs = g / norms[:, None]
    radii = radius * u[:, d] ** (1.0 / d)
    pts = center + radii[:, None] * dirs
    return np.vstack([center[None, :], pts])


def ref_ndtri(y):
    """scipy's Cephes ``ndtri``, C-ordered as ``ball_points`` called it."""
    return ndtri(y, order="C")


def ref_sup_alignment(X, cone, targets):
    """``regularity._sup_alignment`` before it bounded blocks of rows: each
    group's rows against every target through ``_block_sup``.  No pair is
    pruned, and the targets below every row of a ray group, which that
    kernel dropped with an absolute ``1e-12`` slack, are kept too."""
    scale = max(float(np.max(np.abs(X), initial=0.0)), float(np.max(np.abs(targets), initial=0.0)))
    coincident = COINCIDENT * scale
    best = 0.0
    for g in cone:
        rows = X[g.rows]
        if g.per_row:
            def align(U, block, g=g):
                planes = [_dot(U, B.T[:, :, None]) for B in g.basis[block].swapaxes(0, 1)]
                if g.one_sided or len(planes) == 1:
                    return planes[0] if g.one_sided else np.abs(planes[0])
                return _norm(planes)
        elif g.one_sided:
            def align(U, _, w=g.basis[0]):
                return _dot(U, w)
        else:
            def align(U, _, W=g.basis):
                return _norm([_dot(U, b) for b in W])
        best = max(best, _block_sup(rows, targets, align, coincident))
    return best


def batched_generators(cone, i):
    """Row ``i``'s unit generators from a cone of rows: a ray's basis row, and
    a span's basis rows and their negations.  An empty list is the zero cone."""
    out = []
    for g in cone:
        for j in np.flatnonzero(g.rows == i):
            b = g.basis[j] if g.per_row else g.basis
            out.extend(b if g.one_sided else np.vstack([b, -b]))
    return out


def ref_friedrichs_cosine(frame_a, frame_b):
    """The largest principal cosine of ``A n (A n B)^perp`` and
    ``B n (A n B)^perp``: each basis reduced modulo the intersection and
    orthonormalized again; zero when either part is trivial.  When one space
    contains the other, its reduced basis is rounding noise that
    ``orthonormalize`` keeps, so compare on pairs where each space has a
    direction of its own."""
    meet = subspace_intersection(frame_a.basis, frame_b.basis)

    def mod_meet(basis):
        if basis.shape[0] == 0 or meet.shape[0] == 0:
            return basis
        return orthonormalize(basis - (basis @ meet.T) @ meet)

    return largest_principal_cosine(mod_meet(frame_a.basis), mod_meet(frame_b.basis))


def _clip_small(values, floor):
    """Clamp magnitudes below ``floor`` up to it, keeping signs."""
    signs = np.where(values >= 0, 1.0, -1.0)
    return signs * np.maximum(np.abs(values), floor)


def ref_affine_chart(frame, anchor, delta, n, seed):
    """``AffineSubspace.chart`` with its ladder stepped one point at a time."""
    p0 = frame.project_many(anchor[None])[0]
    k = frame.dim_subspace
    pts = [p0[None, :]]
    if k > 0:
        ladder = dyadic_ladder(n) * delta
        u = qmc_unit(n, k, seed)
        coeff = _clip_small((2.0 * u - 1.0) * delta, ladder[-1])
        pts.append(p0 + coeff @ frame.basis)
        for r in ladder:
            for i in range(k):
                step = r * frame.basis[i]
                pts.append(np.vstack([p0 + step, p0 - step]))
    return _in_ball(np.vstack(pts), anchor, delta)


def ref_boundary_chart(center, radius, anchor, delta, n, seed):
    """``sampling._boundary_chart`` with its ladder normalized one point at
    a time."""
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    n0 = anchor - center
    nn = np.linalg.norm(n0)
    n0 = n0 / nn if nn > 1e-12 else np.eye(d)[0]
    W = complement_basis(n0[None, :], d)
    phi_max = 2.0 * math.asin(min(delta / (2.0 * radius), 1.0))
    phi_cap = min(phi_max, 1.45)
    s_max = math.tan(phi_cap) if phi_max < math.pi / 2 else 50.0
    pts = [(center + radius * n0)[None, :]]
    if d > 1 and W.shape[0]:
        ladder = dyadic_ladder(n)
        u = qmc_unit(n, d - 1, seed)
        t = _clip_small((2.0 * u - 1.0) * s_max, math.tan(phi_cap * ladder[-1]))
        dirs = n0 + t @ W
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts.append(center + radius * dirs)
        for r in ladder:
            ang = phi_cap * r
            for i in range(W.shape[0]):
                for sign in (1.0, -1.0):
                    v = n0 + sign * math.tan(ang) * W[i]
                    pts.append((center + radius * v / np.linalg.norm(v))[None, :])
    if delta >= 2.0 * radius - 1e-12:
        pts.append((center - radius * n0)[None, :])
    return _in_ball(np.vstack(pts), anchor, delta)


def ref_ball_chart(ball, anchor, delta, n, seed):
    """``Ball.chart``: the boundary chart, and the anchor itself if the ball
    holds it."""
    pts = ref_boundary_chart(ball.center, ball.radius, anchor, delta, n, seed)
    return np.vstack([anchor[None, :], pts]) if ball.contains(anchor) else pts


def ref_kinked_chart(k, anchor, delta, n, seed):
    """``KinkedRegion.chart`` reading its radii from column 0 of a
    two-column Halton draw."""
    span = float(np.linalg.norm(anchor)) + delta
    ladder = dyadic_ladder(n)
    u = qmc_unit(n, 2, seed)
    radii = np.concatenate([np.maximum(span * u[:, 0], span * ladder[-1]), span * ladder])
    neg = np.column_stack([-radii, radii]) / math.sqrt(2.0)
    pos = np.column_stack([radii, np.zeros_like(radii)])
    boundary = np.vstack([neg, pos, np.zeros((1, 2))])
    interior = np.vstack([boundary - np.array([0.0, h]) for h in delta * np.array([0.25, 0.5])])
    interior = interior[k.contains_many(interior, tol=0.0)]
    return _in_ball(np.vstack([k.project_many(anchor[None]), boundary, interior]), anchor, delta)
