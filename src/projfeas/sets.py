"""Closed-set descriptors with exact distances, projectors, reflectors and
analytic normal cones.

Projectors may be multi-valued on the nonconvex variants.  Each variant
lists the candidate nearest points of every row of a point array once, in a
fixed order (``_candidates``: a union's frames by index, the kinked region's
slanted edge before its flat one), and one tie rule reads every such list:
the candidates within ``TIE_TOL`` of the least distance are the branches, and
the first of them in the listed order is the ``selected`` one, so iterations
are reproducible.  ``project_many`` gathers the selected branch of every row,
``distance_many`` the least distance and ``branches_many`` every branch, and a
row's result does not depend on the batch it is in.  Every query takes rows;
``project`` and ``contains`` also take a single point, as a batch of one, only
because ``perfbench/`` reads them by name: nothing in the package calls
either on a single point.  A single-valued variant writes ``project_many``
and ``distance_many`` itself, and its one candidate is that projection.
Each variant also owns its sampling ``chart``: the on-set points the
estimators draw near an anchor, the anchor's nearest one among them.

``AffineSubspace`` is the one affine type: it checks its orthonormal basis,
projects, charts and writes itself, and a union's frames are
``AffineSubspace`` members too.

Each variant writes its normal-cone rule once, in ``_normal_groups``: the
normals of every piece of the set (a frame, an edge, the whole set) that
holds a point.  That is its limiting cone, and its proximal cone too, save
at a point more than one piece holds (a union's frame crossing, the kinked
corner), where the proximal cone is the zero cone.  A normal cone of a
point array is the tuple of its nonempty ``NormalGroup``s (``_cones``).  The
reflector ``reflect`` is ``2p - x`` over the slots of ``branches_many``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _is_orthonormal, as_point, as_points, complement_basis, orthonormalize, row_norms
from .sampling import _boundary_chart, _in_ball, chart_coords, dyadic_ladder, qmc_unit

MEMBERSHIP_TOL = 1e-9   # iterates land on sets only up to floating error
TIE_TOL = 1e-10         # branch distances within this slack count as tied
CENTER_TOL = 1e-13      # relative radius below which a point sits at a sphere center
# A numpy call on a few rows costs about twice as much when an operand is
# broadcast to their shape, so each set keeps its per-call constants as
# read-only tiles of this many rows (``_Constants``)
SAME_SHAPE_ROWS = 512

INFINITE = math.inf


class _Constants(dict):
    """A set's per-call constants, each repeated on ``SAME_SHAPE_ROWS`` rows
    of a read-only tile.  ``consts[m]`` is the tuple of the tiles' first
    ``m`` rows, which a batch of ``m`` rows meets without broadcasting, made
    once per ``m``; past the tiles it is their first rows, which broadcast."""

    def __init__(self, *values):
        super().__init__()
        self.tiles = tuple(np.repeat(np.asarray(v, dtype=float)[None], SAME_SHAPE_ROWS, axis=0) for v in values)
        for tile in self.tiles:
            tile.flags.writeable = False

    def __missing__(self, m):
        if m > SAME_SHAPE_ROWS:
            return self[1]
        views = self[m] = tuple(tile[:m] for tile in self.tiles)
        return views


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

    def restricted(self, keep):
        """The group on the ``rows`` where the mask ``keep`` holds."""
        return NormalGroup(self.basis[keep] if self.per_row else self.basis, self.rows[keep], self.one_sided)


def _cones(*groups):
    """The cone of the ``groups`` that hold a row and a nonzero component:
    row ``i``'s cone is the union of the components of the groups whose
    ``rows`` hold ``i``, and the zero cone if none does."""
    return tuple(g for g in groups if g.rows.size and g.basis.shape[-2])


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

    def distance_many(self, X):
        """Distance of every row of an ``(m, dim)`` array; unvalidated."""
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

    def reflect(self, X):
        """Every branch of ``2 P(x) - x`` for every row of a ``(..., dim)``
        array, in the slots of ``branches_many``.  Unvalidated."""
        return 2.0 * self.branches_many(X) - X

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return bool(self.contains_many(as_point(x, self.dim)[None], tol)[0])

    def contains_many(self, X, tol=MEMBERSHIP_TOL):
        """Row-wise ``contains`` of an ``(m, dim)`` array; unvalidated."""
        return self.distance_many(X) <= tol

    def _normal_groups(self, X):
        """One normal group per piece of the set, on the rows of the member
        array ``X`` that the piece holds: the limiting normal cones."""
        raise NotImplementedError

    def normal_components(self, X):
        """Proximal normal cones at every row of ``X``: the limiting cones,
        save that a row more than one piece holds has the zero cone.  Raises
        if a row is not in the set to ``MEMBERSHIP_TOL * max(1, |x|)``.
        """
        X = self._check_members(X)
        groups = self._normal_groups(X)
        pieces = np.bincount(np.concatenate([g.rows for g in groups]), minlength=X.shape[0])
        return _cones(*(g.restricted(pieces[g.rows] == 1) for g in groups))

    def limiting_normals(self, X):
        """Limiting normal cones at every row of ``X``, as ``normal_components``
        gives the proximal ones: the normals of every piece that holds a row.
        Raises if a row is not in the set to ``MEMBERSHIP_TOL * max(1, |x|)``.
        """
        return _cones(*self._normal_groups(self._check_members(X)))

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
        # relative past |x| = 1: a far point lands on the set only to its own rounding
        off = ~(self.distance_many(X) <= MEMBERSHIP_TOL * np.maximum(1.0, row_norms(X)))
        if off.any():
            raise ValueError(f"point {X[np.argmax(off)]} is not in the set (tol {MEMBERSHIP_TOL} * max(1, |x|))")
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
    """The affine subspace ``offset + span(basis rows)``.

    The basis rows are pairwise orthonormal; with none, the subspace is the
    single point ``offset``.
    """

    def __init__(self, offset, basis=()):
        offset = as_point(offset)
        basis = np.asarray(basis, dtype=float)
        if basis.size == 0:
            basis = np.zeros((0, offset.shape[0]))
        if basis.ndim != 2 or basis.shape[1] != offset.shape[0]:
            raise ValueError("basis rows must match the offset dimension")
        if basis.shape[0] > basis.shape[1]:
            raise ValueError("more basis vectors than ambient dimensions")
        if not _is_orthonormal(basis):
            raise ValueError("basis is not orthonormal; build via AffineSubspace.from_span")
        self.offset, self.basis, self.dim = offset, basis, offset.shape[0]
        self.dim_subspace = basis.shape[0]
        self.normal_basis = complement_basis(basis, self.dim)
        self._consts, self._basis_t = _Constants(offset), basis.T

    @classmethod
    def from_span(cls, offset, vectors):
        """The subspace through ``offset`` spanning the given (not necessarily
        orthonormal, possibly dependent) direction vectors."""
        return cls(offset, orthonormalize(vectors))

    def distance_many(self, X):
        return row_norms(X - self.project_many(X))

    def project_many(self, X):
        """A stacked ``matmul`` makes one matrix-vector product per row, so a
        row's result does not depend on the batch it is in (a product of
        whole matrices would round differently)."""
        if self.dim_subspace == 0:
            return np.full(X.shape, self.offset)
        (offset,) = self._consts[X.shape[0]]
        R = (X - offset)[:, :, None]
        return offset + np.matmul(self._basis_t, np.matmul(self.basis, R))[:, :, 0]

    def _normal_groups(self, X):
        return (NormalGroup(self.normal_basis, np.arange(X.shape[0])),)

    def chart(self, anchor, delta, n, seed):
        pts = self.project_many(anchor[None])
        if self.dim_subspace:
            T = chart_coords(n, self.dim_subspace, seed, delta, dyadic_ladder(n) * delta)
            pts = np.vstack([pts, pts + T @ self.basis])
        return _in_ball(pts, anchor, delta)

    def is_convex(self):
        return True

    def is_affine(self):
        return True

    def to_dict(self):
        return {
            "variant": "affine",
            "offset": [float(v) for v in self.offset],
            "basis": [[float(v) for v in row] for row in self.basis],
        }


class _Round(ClosedSet):
    """A center and a finite positive radius, as ``Ball`` and ``Sphere`` share them."""

    variant: str  # the ``to_dict`` name

    def __init__(self, center, radius):
        self.center = as_point(center)
        self.radius = float(radius)
        if not 0 < self.radius < np.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        self.dim = self.center.shape[0]
        self._consts = _Constants(*self._constants())

    def _constants(self):
        """The per-call constants of ``project_many``, in the order it reads them."""
        return self.center, self.radius

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

    def project_many(self, X):
        # a row outside divides by its own r; NaN passes through np.maximum
        center, radius = self._consts[X.shape[0]]
        D = X - center
        r = row_norms(D)
        scale = radius / np.maximum(r, radius)
        return np.where((r <= radius)[:, None], X, center + scale[:, None] * D)

    def _normal_groups(self, X):
        D = X - self.center
        r = row_norms(D)
        rows = np.flatnonzero(r >= self.radius - MEMBERSHIP_TOL)
        return (NormalGroup((D[rows] / r[rows, None])[:, None], rows, one_sided=True),)

    def chart(self, anchor, delta, n, seed):
        pts = _boundary_chart(self.center, self.radius, anchor, delta, n, seed)
        if self.contains_many(anchor[None])[0]:
            pts = np.vstack([anchor[None, :], pts])
        return pts

    def is_convex(self):
        return True


class Sphere(_Round):
    """Euclidean sphere (boundary only); the model nonconvex smooth set."""

    variant = "sphere"

    def _constants(self):
        # the center guard, and the canonical point a row at the center takes
        canonical = self.center.copy()
        canonical[0] += self.radius
        return self.center, self.radius, CENTER_TOL * max(1.0, self.radius), canonical

    def distance_many(self, X):
        return np.abs(row_norms(X - self.center) - self.radius)

    def _nearest(self, X):
        """Selected projections of the rows of ``X`` and which of them sit
        at the center."""
        # a row off the center divides by its own r; the quotient is at most 1e13
        center, radius, gap, canonical = self._consts[X.shape[0]]
        D = X - center
        r = row_norms(D)
        at_center = r <= gap
        scale = radius / np.maximum(r, gap)
        return np.where(at_center[:, None], canonical, center + scale[:, None] * D), at_center

    def project_many(self, X):
        return self._nearest(X)[0]

    def _continuum(self, X):
        # at the center the full sphere is nearest
        return self._nearest(X)[1]

    def _normal_groups(self, X):
        D = X - self.center
        return (NormalGroup((D / row_norms(D)[:, None])[:, None], np.arange(X.shape[0])),)

    def chart(self, anchor, delta, n, seed):
        return _boundary_chart(self.center, self.radius, anchor, delta, n, seed)


class UnionOfSubspaces(ClosedSet):
    """Finite union of affine subspaces with a common ambient dimension."""

    def __init__(self, frames):
        frames = tuple(frames)
        if not frames:
            raise ValueError("union needs at least one frame")
        dims = {f.dim for f in frames}
        if len(dims) != 1:
            raise ValueError("frames have mixed ambient dimensions")
        self.frames = frames
        self.dim = dims.pop()

    @classmethod
    def cross(cls, dim=2):
        """Union of the coordinate axes (the sparse-signal model set)."""
        return cls(AffineSubspace(np.zeros(dim), np.eye(dim)[i : i + 1]) for i in range(dim))

    def _candidates(self, X):
        # each frame's projection, lowest index first
        P = np.stack([f.project_many(X) for f in self.frames])
        return P, row_norms(X - P)

    def _normal_groups(self, X):
        # every frame that holds a row, also at a crossing: its normal space
        # is the limit of the proximal cones along the frame, while the
        # projector preimage of the crossing collapses to the point itself
        held = self._candidates(X)[1] <= MEMBERSHIP_TOL
        return tuple(NormalGroup(f.normal_basis, np.flatnonzero(h)) for f, h in zip(self.frames, held))

    def chart(self, anchor, delta, n, seed):
        per = max(1, n // len(self.frames))
        return np.vstack([f.chart(anchor, delta, per, seed + 911 * i) for i, f in enumerate(self.frames)])

    def to_dict(self):
        frames = [{k: v for k, v in f.to_dict().items() if k != "variant"} for f in self.frames]
        return {"variant": "union", "frames": frames}


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
        # the smaller.  A point of the region is its own nearest point on both.
        # ``where`` keeps a zero's sign as min and max do: np.minimum(-0.0, 0.0) is 0.0
        d = (X[:, 0] - X[:, 1]) / 2.0
        t = np.where(0.0 < d, 0.0, d)
        edges = np.stack([
            np.stack([t, -t], axis=1),
            np.stack([np.where(X[:, 0] < 0.0, 0.0, X[:, 0]), np.zeros(X.shape[0])], axis=1),
        ])
        P = np.where(self.contains_many(X, tol=0.0)[:, None], X, edges)
        return P, row_norms(X - P)

    def _normal_groups(self, X):
        # both edges hold the corner: each edge's normal is the limit along it
        corner = row_norms(X) <= MEMBERSHIP_TOL
        on_neg = corner | ((X[:, 0] < 0) & (np.abs(X[:, 1] + X[:, 0]) <= MEMBERSHIP_TOL))
        on_pos = corner | ((X[:, 0] > 0) & (np.abs(X[:, 1]) <= MEMBERSHIP_TOL))
        return tuple(
            NormalGroup(normal[None, :].copy(), np.flatnonzero(on_edge), one_sided=True)
            for normal, on_edge in ((self.EDGE_NEG_NORMAL, on_neg), (self.EDGE_POS_NORMAL, on_pos))
        )

    def chart(self, anchor, delta, n, seed):
        span = float(np.linalg.norm(anchor)) + delta
        ladder = dyadic_ladder(n)
        u = qmc_unit(n, 1, seed)[:, 0]
        radii = np.concatenate([
            np.maximum(span * u, span * ladder[-1]),
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
        return _in_ball(np.vstack([self.project_many(anchor[None]), boundary, interior]), anchor, delta)

    def to_dict(self):
        return {"variant": "kinked"}


def set_from_dict(data):
    """Inverse of ``ClosedSet.to_dict`` (used by the config layer).  Unlike
    ``from_span``, an affine set's basis vectors may not be dependent."""
    variant = data.get("variant")
    if variant == "affine":
        s = AffineSubspace.from_span(data["offset"], data["basis"])
        if s.dim_subspace < len(data["basis"]):
            raise ValueError(f"{len(data['basis'])} basis vectors span only {s.dim_subspace} dimensions")
        return s
    if variant == "ball":
        return Ball(data["center"], data["radius"])
    if variant == "sphere":
        return Sphere(data["center"], data["radius"])
    if variant == "union":
        return UnionOfSubspaces([set_from_dict({**f, "variant": "affine"}) for f in data["frames"]])
    if variant == "kinked":
        return KinkedRegion()
    raise ValueError(f"unknown set variant {variant!r}")
