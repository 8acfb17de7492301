"""Closed-set descriptors with exact distances, projectors, reflectors and
analytic normal cones.

Projectors may be multi-valued on the nonconvex variants.  Every projection
returns the complete finite branch set together with one deterministic
``selected`` branch, so iterations are reproducible: ties are broken by the
lexicographically smallest coordinate vector, and for unions of subspaces by
the lowest frame index first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import AffineFrame, as_point, complement_basis

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


def _row_norms(D):
    # a dot product per row, as np.linalg.norm of one point computes it, so
    # batched normals equal per-point ones bit for bit
    return np.sqrt(np.vecdot(D, D))


class ClosedSet:
    """Base class: a nonempty closed subset of Euclidean space."""

    dim: int

    def distance(self, x):
        return self.project(x).distance

    def distance_many(self, X):
        X = np.asarray(X, dtype=float)
        return np.array([self.distance(x) for x in X])

    def project(self, x) -> ProjectionOutcome:
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
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected an (n, {self.dim}) array of points, got shape {X.shape}")
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
        x = as_point(x, self.dim)
        p = self.frame.project(x)
        return ProjectionOutcome(p, (p,), 1, float(np.linalg.norm(x - p)))

    def distance(self, x):
        x = as_point(x, self.dim)
        return float(np.linalg.norm(x - self.frame.project(x)))

    def distance_many(self, X):
        X = np.asarray(X, dtype=float)
        return np.linalg.norm(X - self.frame.project_many(X), axis=-1)

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

    def distance(self, x):
        x = as_point(x, self.dim)
        return max(float(np.linalg.norm(x - self.center)) - self.radius, 0.0)

    def distance_many(self, X):
        X = np.asarray(X, dtype=float)
        return np.maximum(np.linalg.norm(X - self.center, axis=-1) - self.radius, 0.0)

    def project(self, x):
        x = as_point(x, self.dim)
        r = float(np.linalg.norm(x - self.center))
        if r <= self.radius:
            return ProjectionOutcome(x.copy(), (x.copy(),), 1, 0.0)
        p = self.center + (self.radius / r) * (x - self.center)
        return ProjectionOutcome(p, (p,), 1, r - self.radius)

    def normal_components(self, X):
        X = self._check_members(X)
        D = X - self.center
        r = _row_norms(D)
        on_boundary = r >= self.radius - MEMBERSHIP_TOL
        own = np.zeros_like(X)
        own[on_boundary] = D[on_boundary] / r[on_boundary, None]
        return NormalComponents(own, on_boundary)

    def limiting_normals(self, x):
        return _cone(self.dim, rays=self.proximal_normals(x))

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

    def distance(self, x):
        x = as_point(x, self.dim)
        return abs(float(np.linalg.norm(x - self.center)) - self.radius)

    def distance_many(self, X):
        X = np.asarray(X, dtype=float)
        return np.abs(np.linalg.norm(X - self.center, axis=-1) - self.radius)

    def project(self, x):
        x = as_point(x, self.dim)
        r = float(np.linalg.norm(x - self.center))
        if r <= CENTER_TOL * max(1.0, self.radius):
            # the full sphere is nearest; return the canonical representative
            p = self.center.copy()
            p[0] += self.radius
            return ProjectionOutcome(p, (p,), INFINITE, self.radius)
        p = self.center + (self.radius / r) * (x - self.center)
        return ProjectionOutcome(p, (p,), 1, abs(r - self.radius))

    def normal_components(self, X):
        X = self._check_members(X)
        D = X - self.center
        radial = D / _row_norms(D)[:, None]
        return NormalComponents(radial, np.ones(X.shape[0], dtype=bool), own_lines=True)

    def limiting_normals(self, x):
        u, _ = self.proximal_normals(x)
        return _cone(self.dim, subspaces=[u.reshape(1, -1)])

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

    def distance(self, x):
        x = as_point(x, self.dim)
        return min(float(np.linalg.norm(x - f.project(x))) for f in self.frames)

    def distance_many(self, X):
        X = np.asarray(X, dtype=float)
        per = [np.linalg.norm(X - f.project_many(X), axis=-1) for f in self.frames]
        return np.min(np.vstack(per), axis=0)

    def project(self, x):
        x = as_point(x, self.dim)
        cands = []
        for f in self.frames:
            p = f.project(x)
            cands.append((p, float(np.linalg.norm(x - p))))
        return _select_ties(cands, tie="order")

    def normal_components(self, X):
        X = self._check_members(X)
        held = np.array([
            np.linalg.norm(X - f.project_many(X), axis=-1) <= MEMBERSHIP_TOL for f in self.frames
        ])
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
        x = as_point(x, 2)
        if x[0] <= 0:
            return x[1] <= -x[0] + tol
        return x[1] <= tol

    @staticmethod
    def contains_many(X, tol=MEMBERSHIP_TOL):
        """Row-wise ``contains`` of an ``(n, 2)`` array."""
        X = np.asarray(X, dtype=float)
        return np.where(X[:, 0] <= 0, X[:, 1] <= -X[:, 0] + tol, X[:, 1] <= tol)

    def _boundary_candidates(self, x):
        # nearest points on the two closed boundary rays
        t = min((x[0] - x[1]) / 2.0, 0.0)
        cand_neg = np.array([t, -t])
        cand_pos = np.array([max(x[0], 0.0), 0.0])
        return [
            (cand_neg, float(np.linalg.norm(x - cand_neg))),
            (cand_pos, float(np.linalg.norm(x - cand_pos))),
        ]

    def distance(self, x):
        x = as_point(x, 2)
        if self.contains(x, tol=0.0):
            return 0.0
        return min(d for _, d in self._boundary_candidates(x))

    def distance_many(self, X):
        X = np.asarray(X, dtype=float)
        inside = self.contains_many(X, tol=0.0)
        t = np.minimum((X[:, 0] - X[:, 1]) / 2.0, 0.0)
        d_neg = np.hypot(X[:, 0] - t, X[:, 1] + t)
        d_pos = np.hypot(np.minimum(X[:, 0], 0.0), X[:, 1])
        return np.where(inside, 0.0, np.minimum(d_neg, d_pos))

    def project(self, x):
        x = as_point(x, 2)
        if self.contains(x, tol=0.0):
            return ProjectionOutcome(x.copy(), (x.copy(),), 1, 0.0)
        return _select_ties(self._boundary_candidates(x), tie="lex")

    def normal_components(self, X):
        X = self._check_members(X)
        off_corner = np.linalg.norm(X, axis=1) > MEMBERSHIP_TOL  # reflex corner: zero cone
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
