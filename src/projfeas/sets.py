"""Closed-set descriptors with exact distances, projectors, reflectors and
analytic normal cones.

Projectors may be multi-valued on the nonconvex variants.  Each variant
lists the candidate nearest points of every row of a point array once, in a
fixed order (``_candidates``: a union's frames by index, the kinked region's
slanted edge before its flat one), and one tie rule reads every such list:
the candidates within ``TIE_TOL`` of the least distance are the branches, and
the first of them in the listed order is the ``selected`` one, so iterations
are reproducible.  ``project_many`` gathers the selected branch of every row,
``distance_many`` the least distance and ``branches_many`` every branch;
``project`` and ``distance`` evaluate them on a batch of one, so a row's
result does not depend on the batch it is in.  A single-valued variant
writes ``project_many`` and ``distance_many`` itself, and its one candidate is
that projection.  Each variant also owns its sampling ``chart``, the on-set
points the estimators draw near an anchor.
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


def _select_ties_many(D):
    """The tie rule over the ``(k, m)`` candidate distances of ``m`` rows:
    each row's selected candidate, the first in listed order within
    ``TIE_TOL`` of the row's least distance; the mask of those tied
    candidates; and the least distances."""
    dmin = D.min(axis=0)
    tied = D <= dmin + TIE_TOL * np.maximum(1.0, dmin)
    return np.argmax(tied, axis=0), tied, dmin


def _branch_mask(P, D):
    """``_select_ties_many`` with the tied candidates narrowed to branches:
    a candidate within a relative 1e-12 of an earlier branch is dropped."""
    first, kept, dmin = _select_ties_many(D)
    near = 1e-12 * np.maximum(1.0, dmin)
    for i in range(1, P.shape[0]):
        for j in range(i):
            kept[i] &= ~(kept[j] & (row_norms(P[i] - P[j]) <= near))
    return first, kept, dmin


@dataclass(frozen=True)
class NormalGroup:
    """Rows of a sample array whose proximal cones hold one component each.

    ``basis`` has orthonormal rows: a ``(k, dim)`` basis that all the
    ``rows`` share, or an ``(r, k, dim)`` stack with one basis per row.
    With ``one_sided`` a basis has a single row and the component is the ray
    through it; otherwise the component is the full span of its rows.
    """

    basis: np.ndarray
    rows: np.ndarray
    one_sided: bool = False

    @property
    def per_row(self):
        """Whether ``basis`` is a stack with one basis per row."""
        return self.basis.ndim == 3


@dataclass(frozen=True)
class NormalComponents:
    """Proximal normal cones at every row of an on-set sample array of
    dimension ``dim``.

    Row ``i``'s cone is the union of the components of the groups whose
    ``rows`` hold ``i``; a row no group holds has the zero cone.  Groups list
    only rows they hold, and none is empty.
    """

    dim: int
    groups: tuple = ()

    def generators(self, i):
        """Unit generators of row ``i``'s cone, as ``proximal_normals`` lists
        them: a span contributes its basis and its negation."""
        out = []
        for g in self.groups:
            for j in np.flatnonzero(g.rows == i):
                b = g.basis[j] if g.per_row else g.basis
                out.extend(b if g.one_sided else np.vstack([b, -b]))
        return out

    def cone_parts(self):
        """(rays, subspace stacks) over all rows, for opposition checks: a
        ``(m, dim)`` array of rays and a list of ``(m, k, dim)`` stacks of
        orthonormal subspace bases."""
        rays = [g.basis.reshape(-1, self.dim) for g in self.groups if g.one_sided]
        subs = [g.basis if g.per_row else g.basis[None] for g in self.groups if not g.one_sided]
        return (np.vstack(rays) if rays else np.zeros((0, self.dim))), subs


def _cones(dim, *groups):
    """``NormalComponents`` of the ``groups`` that hold a row and a nonzero
    component."""
    return NormalComponents(dim, tuple(g for g in groups if g.rows.size and g.basis.shape[-2]))


def _frame_dict(frame):
    """An affine frame's ``to_dict`` entries, as ``set_from_dict`` reads them."""
    return {
        "offset": [float(v) for v in frame.offset],
        "basis": [[float(v) for v in row] for row in frame.basis],
    }


class ClosedSet:
    """Base class: a nonempty closed subset of Euclidean space."""

    dim: int

    def _candidates(self, X):
        """Candidate nearest points of every row of an ``(m, dim)`` array and
        their distances, ``(k, m, dim)`` and ``(k, m)`` arrays, in the order
        the tie rule reads them.  A single-valued projector's one candidate
        is its projection."""
        return self.project_many(X)[None], self.distance_many(X)[None]

    def _continuum(self, X):
        """Rows whose nearest points form a continuum; their candidates hold
        one canonical representative."""
        return np.zeros(X.shape[0], dtype=bool)

    def distance(self, x):
        return float(self.distance_many(as_point(x, self.dim)[None])[0])

    def distance_many(self, X):
        """Distance of every row of an ``(m, dim)`` array; unvalidated.
        ``distance`` is its batch of one."""
        return self._candidates(X)[1].min(axis=0)

    def project(self, x) -> ProjectionOutcome:
        """Every branch of the projection of ``x``, the selected one first."""
        X = as_point(x, self.dim)[None]
        P, D = self._candidates(X)
        _, kept, dmin = _branch_mask(P, D)
        branches = tuple(P[kept[:, 0], 0])
        count = INFINITE if self._continuum(X)[0] else len(branches)
        return ProjectionOutcome(branches[0], branches, count, float(dmin[0]))

    def project_many(self, X):
        """The ``selected`` branch of ``project`` for every row of an
        ``(m, dim)`` array.

        Unvalidated: callers check the points once, at their boundary.
        """
        P, D = self._candidates(X)
        return P[_select_ties_many(D)[0], np.arange(X.shape[0])]

    def branches_many(self, X):
        """Every branch of the projection of every row of a ``(..., dim)``
        array, on a new leading axis with one slot per candidate; a row with
        fewer branches repeats its selected one.  Unvalidated."""
        flat = X.reshape(-1, self.dim)
        P, D = self._candidates(flat)
        first, kept, _ = _branch_mask(P, D)
        selected = P[first, np.arange(flat.shape[0])]
        return np.where(kept[..., None], P, selected).reshape(P.shape[:1] + X.shape)

    def reflect(self, x) -> ProjectionOutcome:
        """All branches of ``2 P(x) - x``."""
        x = as_point(x, self.dim)
        return self.project(x).reflected(x)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return bool(self.contains_many(as_point(x, self.dim)[None], tol)[0])

    def contains_many(self, X, tol=MEMBERSHIP_TOL):
        """Row-wise ``contains`` of an ``(m, dim)`` array; unvalidated."""
        return self.distance_many(X) <= tol

    def normal_components(self, X) -> NormalComponents:
        """Proximal normal cones at every row of ``X`` as normal groups.
        Raises if a row is not in the set to ``MEMBERSHIP_TOL``.
        """
        raise NotImplementedError

    def proximal_normals(self, x):
        """Unit generators of the proximal normal cone at ``x`` (in the set).

        An empty list means the zero cone.  Raises if ``x`` is not in the set
        to ``MEMBERSHIP_TOL``.
        """
        return self.normal_components(as_point(x, self.dim)[None]).generators(0)

    def limiting_normals(self, x) -> NormalComponents:
        """Limiting normal cone at ``x``, as ``normal_components`` of one row.

        It is the proximal cone wherever the two agree, as they do at every
        point of an affine set, a ball or a sphere; a variant with points
        where nearby proximal cones add more overrides it.  Raises if ``x``
        is not in the set to ``MEMBERSHIP_TOL``.
        """
        return self.normal_components(as_point(x, self.dim)[None])

    def chart(self, anchor, delta, n, seed):
        """Deterministic points of the set within ``delta`` of ``anchor``,
        ``n`` quasirandom ones plus the dyadic ladder toward the anchor."""
        raise NotImplementedError(f"no sampling chart for {type(self).__name__}")

    def is_convex(self):
        return False

    def is_affine(self):
        return False

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

    def distance_many(self, X):
        return row_norms(X - self.project_many(X))

    def project_many(self, X):
        return self.frame.project_rows(X)

    def normal_components(self, X):
        X = self._check_members(X)
        return _cones(self.dim, NormalGroup(self.normal_basis, np.arange(X.shape[0])))

    def chart(self, anchor, delta, n, seed):
        return _affine_chart(self.frame, anchor, delta, n, seed)

    def is_convex(self):
        return True

    def is_affine(self):
        return True

    def to_dict(self):
        return {"variant": "affine", **_frame_dict(self.frame)}


class _Round(ClosedSet):
    """A center and a positive radius, as ``Ball`` and ``Sphere`` share them."""

    variant: str  # the ``to_dict`` name

    def __init__(self, center, radius):
        self.center = as_point(center)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.shape[0]

    def to_dict(self):
        return {
            "variant": self.variant,
            "center": [float(v) for v in self.center],
            "radius": float(self.radius),
        }


class Ball(_Round):
    """Closed Euclidean ball."""

    variant = "ball"

    def distance_many(self, X):
        return np.maximum(row_norms(X - self.center) - self.radius, 0.0)

    def _nearest(self, X):
        """Projections of the rows of ``X`` and their distances from the center."""
        D = X - self.center
        r = row_norms(D)
        inside = r <= self.radius
        scale = self.radius / np.where(inside, 1.0, r)
        return np.where(inside[:, None], X, self.center + scale[:, None] * D), r

    def project_many(self, X):
        return self._nearest(X)[0]

    def normal_components(self, X):
        X = self._check_members(X)
        D = X - self.center
        r = row_norms(D)
        rows = np.flatnonzero(r >= self.radius - MEMBERSHIP_TOL)
        return _cones(self.dim, NormalGroup((D[rows] / r[rows, None])[:, None], rows, one_sided=True))

    def chart(self, anchor, delta, n, seed):
        pts = _boundary_chart(self.center, self.radius, anchor, delta, n, seed)
        if self.contains(anchor):
            pts = np.vstack([anchor[None, :], pts])
        return pts

    def is_convex(self):
        return True


class Sphere(_Round):
    """Euclidean sphere (boundary only); the model nonconvex smooth set."""

    variant = "sphere"

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

    def project_many(self, X):
        return self._nearest(X)[0]

    def _continuum(self, X):
        # at the center the full sphere is nearest
        return self._nearest(X)[2]

    def normal_components(self, X):
        X = self._check_members(X)
        D = X - self.center
        return _cones(self.dim, NormalGroup((D / row_norms(D)[:, None])[:, None], np.arange(X.shape[0])))

    def chart(self, anchor, delta, n, seed):
        return _boundary_chart(self.center, self.radius, anchor, delta, n, seed)


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

    def _candidates(self, X):
        # each frame's projection, lowest index first
        P = np.stack([f.project_rows(X) for f in self.frames])
        return P, row_norms(X - P)

    def normal_components(self, X):
        X = self._check_members(X)
        held = self._candidates(X)[1] <= MEMBERSHIP_TOL
        # at a frame crossing the projector preimage collapses to the point
        # itself, so the proximal cone is the zero cone
        alone = held.sum(axis=0) == 1
        return _cones(self.dim, *(NormalGroup(basis, np.flatnonzero(h & alone))
                                  for basis, h in zip(self.normal_bases, held)))

    def limiting_normals(self, x):
        # every frame that holds x, also at a crossing: its normal space is
        # the limit of the proximal cones along the frame
        X = self._check_members(as_point(x, self.dim)[None])
        held = self._candidates(X)[1] <= MEMBERSHIP_TOL
        return _cones(self.dim, *(NormalGroup(basis, np.flatnonzero(h))
                                  for basis, h in zip(self.normal_bases, held)))

    def chart(self, anchor, delta, n, seed):
        per = max(1, n // len(self.frames))
        parts = [
            _affine_chart(f, anchor, delta, per, seed + 911 * i)
            for i, f in enumerate(self.frames)
        ]
        return np.vstack(parts)

    def to_dict(self):
        return {"variant": "union", "frames": [_frame_dict(f) for f in self.frames]}


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

    def contains_many(self, X, tol=MEMBERSHIP_TOL):
        return np.where(X[:, 0] <= 0, X[:, 1] <= -X[:, 0] + tol, X[:, 1] <= tol)

    def _candidates(self, X):
        # the nearest points on the two boundary rays, slanted edge first: its
        # [t, -t] has t <= 0 <= max(x0, 0), so it is also lexicographically
        # the smaller.  A point of the region is its own nearest point on both
        t = np.minimum((X[:, 0] - X[:, 1]) / 2.0, 0.0)
        edges = np.stack([
            np.stack([t, -t], axis=1),
            np.stack([np.maximum(X[:, 0], 0.0), np.zeros(X.shape[0])], axis=1),
        ])
        P = np.where(self.contains_many(X, tol=0.0)[:, None], X, edges)
        return P, row_norms(X - P)

    def normal_components(self, X):
        X = self._check_members(X)
        off_corner = row_norms(X) > MEMBERSHIP_TOL  # reflex corner: zero cone
        on_neg = off_corner & (X[:, 0] < 0) & (np.abs(X[:, 1] + X[:, 0]) <= MEMBERSHIP_TOL)
        on_pos = off_corner & (X[:, 0] > 0) & (np.abs(X[:, 1]) <= MEMBERSHIP_TOL)
        return _cones(self.dim, *(
            NormalGroup(normal[None, :].copy(), np.flatnonzero(on_edge), one_sided=True)
            for normal, on_edge in ((self.EDGE_NEG_NORMAL, on_neg), (self.EDGE_POS_NORMAL, on_pos))
        ))

    def limiting_normals(self, x):
        X = self._check_members(as_point(x, self.dim)[None])
        if row_norms(X)[0] > MEMBERSHIP_TOL:
            return self.normal_components(X)
        # the corner: each edge's normal is the limit along that edge
        corner = np.zeros(1, dtype=int)
        edges = (self.EDGE_NEG_NORMAL, self.EDGE_POS_NORMAL)
        return _cones(self.dim, *(NormalGroup(n[None, :].copy(), corner, one_sided=True) for n in edges))

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
    raise ValueError(f"unknown set variant {variant!r}")
