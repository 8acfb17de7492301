"""Descriptions of the target intersection used by estimators and traces.

Every experiment in this package has an intersection that is either a finite
point set or an affine subspace, so the distance to it is exact whenever a
closed form is supplied.  Without one, the set is treated as the singleton
``{witness}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import AffineFrame, as_point, row_norms, subspace_intersection
from .sets import AffineSubspace, ClosedSet, UnionOfSubspaces

WITNESS_TOL = 1e-9


@dataclass
class SolutionSet:
    """The intersection of the member sets, with a known witness point.

    Parameters
    ----------
    members : sequence of ClosedSet
        The sets whose intersection is the solution set.
    witness : array-like
        A point lying in every member (checked to ``WITNESS_TOL``).
    exact : ClosedSet, optional
        Closed form of the intersection itself (a zero-dimensional frame for
        a single point, a union of such frames for finitely many points, an
        affine subspace, ...).  Enables exact distances and projections.
    """

    members: tuple
    witness: np.ndarray
    exact: ClosedSet | None = None

    def __post_init__(self):
        self.members = tuple(self.members)
        self.witness = as_point(self.witness)
        for m in self.members:
            if not m.contains(self.witness, WITNESS_TOL):
                raise ValueError("witness is not in every member set")
        if self.exact is not None and not self.exact.contains(self.witness, WITNESS_TOL):
            raise ValueError("witness is not in the exact solution set")

    @property
    def dim(self):
        return self.witness.shape[0]

    def distance(self, x):
        return float(self.distance_many(as_point(x, self.dim)[None])[0])

    def distance_many(self, X):
        """Distance of every row of an ``(m, dim)`` array; unvalidated."""
        if self.exact is not None:
            return self.exact.distance_many(X)
        return row_norms(X - self.witness)

    def project(self, x):
        if self.exact is not None:
            return self.exact.project(x).selected
        return self.witness.copy()

    def sample_points(self, delta, n, seed):
        """Solution-set points within ``delta`` of the witness."""
        from .sampling import on_set_points

        if self.exact is None:
            return self.witness[None, :].copy()
        pts = on_set_points(self.exact, self.witness, delta, n, seed)
        if pts.shape[0] == 0:
            return self.witness[None, :].copy()
        return pts


def singleton_solution(members, point):
    point = as_point(point)
    return SolutionSet(tuple(members), point, AffineSubspace(AffineFrame.single_point(point)))


def point_set_solution(members, points, witness=None):
    frames = [AffineFrame.single_point(p) for p in points]
    exact = UnionOfSubspaces(frames)
    w = points[0] if witness is None else witness
    return SolutionSet(tuple(members), w, exact)


def subspace_pair_solution(a: AffineSubspace, b: AffineSubspace, witness):
    """Exact solution set of two affine subspaces through a common witness."""
    witness = as_point(witness)
    direction = subspace_intersection(a.frame.basis, b.frame.basis)
    exact = AffineSubspace(AffineFrame(witness, direction))
    return SolutionSet((a, b), witness, exact)
