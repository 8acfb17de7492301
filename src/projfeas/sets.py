"""Closed-set descriptors with exact distances, projectors, reflectors and
analytic normal cones.

Projectors may be multi-valued on the nonconvex variants.  Every projection
returns the complete finite branch set together with one deterministic
``selected`` branch, so iterations are reproducible: ties are broken by the
lexicographically smallest coordinate vector, and for unions of subspaces by
the lowest frame index first.  ``project_many`` returns the selected branch
for every row of a point array with the same tie rules, and ``distance_many``
the distance of every row.  Each variant writes its projection and distance
formulas once, over rows: ``project`` and ``distance`` evaluate them on a
batch of one, so a row's result does not depend on the batch it is in.
Each variant also owns its sampling ``chart``, the on-set points the
estimators draw near an anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import AffineFrame, as_point, as_points, complement_basis, row_norms
from .sampling import _affine_chart, _boundary_chart, _in_ball, dyadic_ladder, qmc_unit

MEMBERSHIP_TOL = 1e-9   # iterates land on sets only up to floating error
TIE_TOL = 1e-10         # branch distances within this slack count as tied
CENTER_TOL = 1e-13      # relative radius below which a point sits at a sphere center

INFINITE = math.inf


@dataclass(frozen=True)
class ProjectionOutcome:
    """Result of projecting a point onto a set.

    ``branches`` lists all best-approximation points when there are finitely
    many; ``branch_count`` is ``math.inf`` for the sphere-center singularity,
    in which case ``branches`` holds only the canonical representative.
    """

    selected: np.ndarray
    branches: tuple
    branch_count: float
    distance: float

    def reflected(self, x):
        """Outcome of ``2p - x`` over every branch; keeps the projection distance."""
        refl = tuple(2.0 * p - x for p in self.branches)
        return ProjectionOutcome(
            selected=2.0 * self.selected - x,
            branches=refl,
            branch_count=self.branch_count,
            distance=self.distance,
        )


def _lex_smaller(p, q):
    for a, b in zip(p, q):
        if a < b - 1e-15:
            return True
        if a > b + 1e-15:
            return False
    return False


def _select_ties(candidates, tie="lex"):
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


@dataclass(frozen=True)
class NormalCone:
    """Limiting normal cone at a point, as a union of components.

    ``rays`` is a (m, dim) array of unit generators of one-sided rays;
    ``subspaces`` is a tuple of orthonormal row-bases whose full spans belong
    to the cone (the normal space of an affine set, the radial line of a
    sphere).  The zero cone has no components.
    """

    rays: np.ndarray
    subspaces: tuple

    @property
    def is_zero(self):
        return self.rays.shape[0] == 0 and len(self.subspaces) == 0

    def cone_parts(self):
        """(rays, subspace stacks) in the form of ``NormalComponents.cone_parts``."""
        return self.rays, [W[None] for W in self.subspaces]


def _cone(dim, rays=(), subspaces=()):
    R = np.vstack(rays) if len(rays) else np.zeros((0, dim))
    return NormalCone(rays=R, subspaces=tuple(subspaces))


@dataclass(frozen=True)
class NormalGroup:
    """Rows of a sample array whose proximal cones share one component.

    ``basis`` has orthonormal rows.  With ``one_sided`` it has a single row
    and the component is the ray through it; otherwise the component is the
    full span of its rows.
    """

    basis: np.ndarray
    rows: np.ndarray
    one_sided: bool = False


@dataclass(frozen=True)
class NormalComponents:
    """Proximal normal cones at every row of an on-set sample array.

    Row ``i``'s cone is the union of the groups whose ``rows`` hold ``i`` and,
    where ``has_own[i]``, of the row's own unit vector ``own[i]``: a ray, or
    with ``own_lines`` the whole line through it.  A row named by neither has
    the zero cone.  Groups list only rows they hold, and none is empty.
    """

    own: np.ndarray
    has_own: np.ndarray
    own_lines: bool = False
    groups: tuple = ()

    def generators(self, i):
        """Unit generators of row ``i``'s cone, as ``proximal_normals`` lists
        them: a span contributes its basis and its negation."""
        out = []
        for g in self.groups:
            if i in g.rows:
                out.extend(g.basis if g.one_sided else np.vstack([g.basis, -g.basis]))
        if self.has_own[i]:
            out.append(self.own[i])
            if self.own_lines:
                out.append(-self.own[i])
        return out

    def cone_parts(self):
        """(rays, subspace stacks) over all rows, for opposition checks: a
        ``(m, dim)`` array of rays and a list of ``(m, k, dim)`` stacks of
        orthonormal subspace bases."""
        rays = [g.basis for g in self.groups if g.one_sided]
        subs = [g.basis[None] for g in self.groups if not g.one_sided]
        own = self.own[self.has_own]
        if own.shape[0] and self.own_lines:
            subs.append(own[:, None, :])
        elif own.shape[0]:
            rays.append(own)
        R = np.vstack(rays) if rays else np.zeros((0, self.own.shape[1]))
        return R, subs


def _no_own(X):
    return np.zeros_like(X), np.zeros(X.shape[0], dtype=bool)


class ClosedSet:
    """Base class: a nonempty closed subset of Euclidean space."""

    dim: int

    def distance(self, x):
        return float(self.distance_many(as_point(x, self.dim)[None])[0])

    def distance_many(self, X):
        """Distance of every row of an ``(m, dim)`` array; unvalidated.
        ``distance`` is its batch of one."""
        raise NotImplementedError

    def project(self, x) -> ProjectionOutcome:
        raise NotImplementedError

    def project_many(self, X):
        """The ``selected`` branch of ``project`` for every row of an
        ``(m, dim)`` array, with the same tie rules.

        Unvalidated: callers check the points once, at their boundary.
        """
        raise NotImplementedError

    def reflect(self, x) -> ProjectionOutcome:
        """All branches of ``2 P(x) - x``."""
        x = as_point(x, self.dim)
        return self.project(x).reflected(x)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return self.distance(x) <= tol

    def normal_components(self, X) -> NormalComponents:
        """Proximal normal cones at every row of ``X`` as shared and per-row
        components.  Raises if a row is not in the set to ``MEMBERSHIP_TOL``.
        """
        raise NotImplementedError

    def proximal_normals(self, x, max_samples=64):
        """Unit generators of the proximal normal cone at ``x`` (in the set).

        An empty list means the zero cone.  Raises if ``x`` is not in the set
        to ``MEMBERSHIP_TOL``.
        """
        x = as_point(x, self.dim)
        return self.normal_components(x[None, :]).generators(0)[:max_samples]

    def limiting_normals(self, x) -> NormalCone:
        """Limiting normal cone at ``x``, assembled from nearby proximal cones."""
        raise NotImplementedError

    def chart(self, anchor, delta, n, seed):
        """Deterministic points of the set within ``delta`` of ``anchor``,
        ``n`` quasirandom ones plus the dyadic ladder toward the anchor."""
        raise NotImplementedError(f"no sampling chart for {type(self).__name__}")

    def is_convex(self):
        return False

    def is_affine(self):
        return False

    def _check_member(self, x):
        x = as_point(x, self.dim)
        if not self.contains(x):
            raise ValueError(f"point {x} is not in the set (tol {MEMBERSHIP_TOL})")
        return x

    def _check_members(self, X):
        X = as_points(X, self.dim)
        off = ~(self.distance_many(X) <= MEMBERSHIP_TOL)
        if off.any():
            raise ValueError(f"point {X[np.argmax(off)]} is not in the set (tol {MEMBERSHIP_TOL})")
        return X

    def to_dict(self):
        raise NotImplementedError

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(repr(self.to_dict()))


class AffineSubspace(ClosedSet):
    """Affine subspace given by an orthonormal frame."""

    def __init__(self, frame: AffineFrame):
        self.frame = frame
        self.dim = frame.dim_ambient
        self.normal_basis = complement_basis(frame.basis, self.dim)

    @classmethod
    def from_span(cls, offset, vectors):
        return cls(AffineFrame.from_span(offset, vectors))

    def project(self, x):
        x = as_point(x, self.dim)[None]
        p = self.project_many(x)
        return ProjectionOutcome(p[0], (p[0],), 1, float(row_norms(x - p)[0]))

    def distance_many(self, X):
        return row_norms(X - self.project_many(X))

    def project_many(self, X):
        return self.frame.project_rows(X)

    def normal_components(self, X):
        X = self._check_members(X)
        groups = ()
        if self.normal_basis.shape[0] and X.shape[0]:
            groups = (NormalGroup(self.normal_basis, np.arange(X.shape[0])),)
        return NormalComponents(*_no_own(X), groups=groups)

    def limiting_normals(self, x):
        self._check_member(x)
        if self.normal_basis.shape[0] == 0:
            return _cone(self.dim)
        return _cone(self.dim, subspaces=[self.normal_basis])

    def chart(self, anchor, delta, n, seed):
        return _affine_chart(self.frame, anchor, delta, n, seed)

    def is_convex(self):
        return True

    def is_affine(self):
        return True

    def to_dict(self):
        return {
            "variant": "affine",
            "offset": [float(v) for v in self.frame.offset],
            "basis": [[float(v) for v in row] for row in self.frame.basis],
        }


class Ball(ClosedSet):
    """Closed Euclidean ball."""

    def __init__(self, center, radius):
        self.center = as_point(center)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.shape[0]

    def distance_many(self, X):
        return np.maximum(row_norms(X - self.center) - self.radius, 0.0)

    def _nearest(self, X):
        """Projections of the rows of ``X`` and their distances from the center."""
        D = X - self.center
        r = row_norms(D)
        inside = r <= self.radius
        scale = self.radius / np.where(inside, 1.0, r)
        return np.where(inside[:, None], X, self.center + scale[:, None] * D), r

    def project(self, x):
        P, r = self._nearest(as_point(x, self.dim)[None])
        return ProjectionOutcome(P[0], (P[0],), 1, max(float(r[0]) - self.radius, 0.0))

    def project_many(self, X):
        return self._nearest(X)[0]

    def normal_components(self, X):
        X = self._check_members(X)
        D = X - self.center
        r = row_norms(D)
        on_boundary = r >= self.radius - MEMBERSHIP_TOL
        own = np.zeros_like(X)
        own[on_boundary] = D[on_boundary] / r[on_boundary, None]
        return NormalComponents(own, on_boundary)

    def limiting_normals(self, x):
        return _cone(self.dim, rays=self.proximal_normals(x))

    def chart(self, anchor, delta, n, seed):
        pts = _boundary_chart(self.center, self.radius, anchor, delta, n, seed)
        if self.contains(anchor):
            pts = np.vstack([anchor[None, :], pts])
        return pts

    def is_convex(self):
        return True

    def to_dict(self):
        return {
            "variant": "ball",
            "center": [float(v) for v in self.center],
            "radius": float(self.radius),
        }


class Sphere(ClosedSet):
    """Euclidean sphere (boundary only); the model nonconvex smooth set."""

    def __init__(self, center, radius):
        self.center = as_point(center)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.shape[0]

    def distance_many(self, X):
        return np.abs(row_norms(X - self.center) - self.radius)

    def _nearest(self, X):
        """Selected projections of the rows of ``X``, their distances from
        the center and which of them sit at it."""
        D = X - self.center
        r = row_norms(D)
        at_center = r <= CENTER_TOL * max(1.0, self.radius)
        scale = self.radius / np.where(at_center, 1.0, r)
        canonical = self.center.copy()
        canonical[0] += self.radius
        return np.where(at_center[:, None], canonical, self.center + scale[:, None] * D), r, at_center

    def project(self, x):
        P, r, at_center = self._nearest(as_point(x, self.dim)[None])
        # at the center the full sphere is nearest; P holds the canonical representative
        count = INFINITE if at_center[0] else 1
        return ProjectionOutcome(P[0], (P[0],), count, abs(float(r[0]) - self.radius))

    def project_many(self, X):
        return self._nearest(X)[0]

    def normal_components(self, X):
        X = self._check_members(X)
        D = X - self.center
        radial = D / row_norms(D)[:, None]
        return NormalComponents(radial, np.ones(X.shape[0], dtype=bool), own_lines=True)

    def limiting_normals(self, x):
        u, _ = self.proximal_normals(x)
        return _cone(self.dim, subspaces=[u.reshape(1, -1)])

    def chart(self, anchor, delta, n, seed):
        return _boundary_chart(self.center, self.radius, anchor, delta, n, seed)

    def to_dict(self):
        return {
            "variant": "sphere",
            "center": [float(v) for v in self.center],
            "radius": float(self.radius),
        }


class UnionOfSubspaces(ClosedSet):
    """Finite union of affine subspaces with a common ambient dimension."""

    def __init__(self, frames):
        frames = tuple(frames)
        if not frames:
            raise ValueError("union needs at least one frame")
        dims = {f.dim_ambient for f in frames}
        if len(dims) != 1:
            raise ValueError("frames have mixed ambient dimensions")
        self.frames = frames
        self.dim = dims.pop()
        self.normal_bases = tuple(complement_basis(f.basis, self.dim) for f in frames)

    @classmethod
    def cross(cls, dim=2):
        """Union of the coordinate axes (the sparse-signal model set)."""
        frames = [
            AffineFrame(np.zeros(dim), np.eye(dim)[i : i + 1]) for i in range(dim)
        ]
        return cls(frames)

    def project(self, x):
        P, D = self._frame_projections(as_point(x, self.dim)[None])
        return _select_ties(list(zip(P[:, 0], D[:, 0])), tie="order")

    def _frame_projections(self, X):
        """Per frame, the projections of the rows of ``X`` and their
        distances: ``(frames, m, dim)`` and ``(frames, m)`` arrays."""
        P = np.stack([f.project_rows(X) for f in self.frames])
        return P, row_norms(X - P)

    def distance_many(self, X):
        return self._frame_projections(X)[1].min(axis=0)

    def project_many(self, X):
        P, D = self._frame_projections(X)
        dmin = D.min(axis=0)
        first = np.argmax(D <= dmin + TIE_TOL * np.maximum(1.0, dmin), axis=0)
        return P[first, np.arange(X.shape[0])]

    def normal_components(self, X):
        X = self._check_members(X)
        held = self._frame_projections(X)[1] <= MEMBERSHIP_TOL
        # at a frame crossing the projector preimage collapses to the point
        # itself, so the proximal cone is the zero cone
        alone = held.sum(axis=0) == 1
        groups = []
        for basis, h in zip(self.normal_bases, held):
            rows = np.flatnonzero(h & alone)
            if basis.shape[0] and rows.size:
                groups.append(NormalGroup(basis, rows))
        return NormalComponents(*_no_own(X), groups=tuple(groups))

    def limiting_normals(self, x):
        x = self._check_member(x)
        subs = [
            basis
            for f, basis in zip(self.frames, self.normal_bases)
            if basis.shape[0] and f.contains(x, MEMBERSHIP_TOL)
        ]
        return _cone(self.dim, subspaces=subs)

    def chart(self, anchor, delta, n, seed):
        per = max(1, n // len(self.frames))
        parts = [
            _affine_chart(f, anchor, delta, per, seed + 911 * i)
            for i, f in enumerate(self.frames)
        ]
        return np.vstack(parts)

    def to_dict(self):
        return {
            "variant": "union",
            "frames": [
                {
                    "offset": [float(v) for v in f.offset],
                    "basis": [[float(v) for v in row] for row in f.basis],
                }
                for f in self.frames
            ],
        }


class KinkedRegion(ClosedSet):
    """The planar region below a boundary kinked at the origin.

    Points satisfy ``x2 <= -x1`` for ``x1 <= 0`` and ``x2 <= 0`` for
    ``x1 > 0``.  The complement is an open convex wedge, so the region has a
    reflex corner at the origin whose proximal normal cone is the zero cone
    while the limiting cone collects both edge normals.
    """

    EDGE_NEG_NORMAL = np.array([1.0, 1.0]) / np.sqrt(2.0)
    EDGE_POS_NORMAL = np.array([0.0, 1.0])

    def __init__(self):
        self.dim = 2

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return bool(self.contains_many(as_point(x, 2)[None], tol)[0])

    @staticmethod
    def contains_many(X, tol=MEMBERSHIP_TOL):
        """Row-wise ``contains`` of an ``(n, 2)`` array."""
        X = np.asarray(X, dtype=float)
        return np.where(X[:, 0] <= 0, X[:, 1] <= -X[:, 0] + tol, X[:, 1] <= tol)

    @staticmethod
    def _edge_points(X):
        """Nearest points of the rows of ``X`` on the two closed boundary
        rays, slanted edge first, and their distances."""
        t = np.minimum((X[:, 0] - X[:, 1]) / 2.0, 0.0)
        neg = np.stack([t, -t], axis=1)
        pos = np.stack([np.maximum(X[:, 0], 0.0), np.zeros(X.shape[0])], axis=1)
        return neg, pos, row_norms(X - neg), row_norms(X - pos)

    def distance_many(self, X):
        _, _, d_neg, d_pos = self._edge_points(X)
        return np.where(self.contains_many(X, tol=0.0), 0.0, np.minimum(d_neg, d_pos))

    def project(self, x):
        x = as_point(x, 2)
        if self.contains(x, tol=0.0):
            return ProjectionOutcome(x.copy(), (x.copy(),), 1, 0.0)
        neg, pos, d_neg, d_pos = self._edge_points(x[None])
        return _select_ties([(neg[0], float(d_neg[0])), (pos[0], float(d_pos[0]))], tie="lex")

    def project_many(self, X):
        # _select_ties row by row.  The slanted edge's candidate [t, -t] has
        # t <= 0 and the flat edge's starts at max(x0, 0) >= 0, so of two
        # tied branches the lexicographic rule always selects the slanted one
        neg, pos, d_neg, d_pos = self._edge_points(X)
        dmin = np.minimum(d_neg, d_pos)
        neg_kept = d_neg <= dmin + TIE_TOL * np.maximum(1.0, dmin)
        outside = np.where(neg_kept[:, None], neg, pos)
        return np.where(self.contains_many(X, tol=0.0)[:, None], X, outside)

    def normal_components(self, X):
        X = self._check_members(X)
        off_corner = row_norms(X) > MEMBERSHIP_TOL  # reflex corner: zero cone
        on_neg = off_corner & (X[:, 0] < 0) & (np.abs(X[:, 1] + X[:, 0]) <= MEMBERSHIP_TOL)
        on_pos = off_corner & (X[:, 0] > 0) & (np.abs(X[:, 1]) <= MEMBERSHIP_TOL)
        groups = tuple(
            NormalGroup(normal[None, :].copy(), np.flatnonzero(on_edge), one_sided=True)
            for normal, on_edge in ((self.EDGE_NEG_NORMAL, on_neg), (self.EDGE_POS_NORMAL, on_pos))
            if on_edge.any()
        )
        return NormalComponents(*_no_own(X), groups=groups)

    def limiting_normals(self, x):
        x = self._check_member(x)
        if float(np.linalg.norm(x)) <= MEMBERSHIP_TOL:
            return _cone(2, rays=[self.EDGE_NEG_NORMAL, self.EDGE_POS_NORMAL])
        rays = self.proximal_normals(x)
        return _cone(2, rays=rays)

    def chart(self, anchor, delta, n, seed):
        span = float(np.linalg.norm(anchor)) + delta
        ladder = dyadic_ladder(n)
        u = qmc_unit(n, 2, seed)
        radii = np.concatenate([
            np.maximum(span * u[:, 0], span * ladder[-1]),
            span * ladder,
        ])
        neg = np.column_stack([-radii, radii]) / math.sqrt(2.0)
        pos = np.column_stack([radii, np.zeros_like(radii)])
        corner = np.zeros((1, 2))
        boundary = np.vstack([neg, pos, corner])
        # a few interior points: drop boundary samples straight down
        drops = delta * np.array([0.25, 0.5])
        interior = np.vstack([boundary - np.array([0.0, h]) for h in drops])
        interior = interior[self.contains_many(interior, tol=0.0)]
        return _in_ball(np.vstack([boundary, interior]), anchor, delta)

    def to_dict(self):
        return {"variant": "kinked"}


class IntersectionSet(ClosedSet):
    """Intersection of member sets; membership and distance queries only.

    Projecting onto an intersection is exactly what the fixed-point algorithms
    avoid, so ``project`` raises.  ``distance`` is exact only when a member
    projection happens to land in every other member; otherwise a solution-set
    description with a closed form must be used.
    """

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ValueError("intersection needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError("members have mixed ambient dimensions")
        self.members = members
        self.dim = dims.pop()

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return all(m.contains(x, tol) for m in self.members)

    def distance(self, x):
        x = as_point(x, self.dim)
        if self.contains(x):
            return 0.0
        best = None
        for m in self.members:
            p = m.project(x).selected
            if all(o.contains(p) for o in self.members):
                d = float(np.linalg.norm(x - p))
                best = d if best is None else min(best, d)
        if best is None:
            raise ValueError(
                "intersection distance is not decidable from member projections; "
                "use a solution set with an exact form"
            )
        return best

    def distance_many(self, X):
        return np.array([self.distance(x) for x in X])

    def project(self, x):
        raise NotImplementedError(
            "projection onto an intersection is unsupported by design; "
            "run a feasibility algorithm on the members instead"
        )

    def normal_components(self, X):
        raise NotImplementedError("normal cones of intersections are not provided")

    def limiting_normals(self, x):
        raise NotImplementedError("normal cones of intersections are not provided")

    def to_dict(self):
        return {"variant": "intersection", "members": [m.to_dict() for m in self.members]}


def set_from_dict(data):
    """Inverse of ``ClosedSet.to_dict`` (used by the config layer)."""
    variant = data.get("variant")
    if variant == "affine":
        return AffineSubspace.from_span(data["offset"], data["basis"])
    if variant == "ball":
        return Ball(data["center"], data["radius"])
    if variant == "sphere":
        return Sphere(data["center"], data["radius"])
    if variant == "union":
        frames = [AffineFrame.from_span(f["offset"], f["basis"]) for f in data["frames"]]
        return UnionOfSubspaces(frames)
    if variant == "kinked":
        return KinkedRegion()
    if variant == "intersection":
        return IntersectionSet([set_from_dict(m) for m in data["members"]])
    raise ValueError(f"unknown set variant {variant!r}")
