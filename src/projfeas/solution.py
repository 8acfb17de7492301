"""Descriptions of the target intersection used by estimators and traces.

Every experiment in this package has an intersection that is either a finite
point set or an affine subspace, so the distance to it is exact whenever a
closed form is supplied.  Without one, the closed form is the singleton
``{witness}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_point, subspace_intersection
from .sets import AffineSubspace, ClosedSet, UnionOfSubspaces


@dataclass
class SolutionSet:
    """The intersection of the member sets, with a known witness point.

    Parameters
    ----------
    members : sequence of ClosedSet
        The sets whose intersection is the solution set.
    witness : array-like
        A point lying in every member and in ``exact`` (checked to
        ``sets.MEMBERSHIP_TOL``).
    exact : ClosedSet, optional
        Closed form of the intersection itself (a zero-dimensional frame for
        a single point, a union of such frames for finitely many points, an
        affine subspace, ...), which distances and samples of the solution
        set read.  Defaults to the single point ``witness``.
    """

    members: tuple
    witness: np.ndarray
    exact: ClosedSet | None = None

    def __post_init__(self):
        self.members = tuple(self.members)
        self.witness = as_point(self.witness)
        if self.exact is None:
            self.exact = AffineSubspace(self.witness)
        for m in self.members + (self.exact,):
            if not m.contains_many(self.witness[None])[0]:
                raise ValueError("witness is not in every member set and the exact form")

    @property
    def dim(self):
        return self.witness.shape[0]

    def distance(self, x):
        return float(self.distance_many(as_point(x, self.dim)[None])[0])

    def distance_many(self, X):
        """Distance of every row of an ``(m, dim)`` array; unvalidated."""
        return self.exact.distance_many(X)

    def sample_points(self, delta, n, seed):
        """Solution-set points within ``delta`` of the witness."""
        from .sampling import on_set_points

        pts = on_set_points(self.exact, self.witness, delta, n, seed)
        if pts.shape[0] == 0:
            return self.witness[None, :].copy()
        return pts


def point_set_solution(members, points, witness=None):
    exact = UnionOfSubspaces(AffineSubspace(p) for p in points)
    w = points[0] if witness is None else witness
    return SolutionSet(tuple(members), w, exact)


def subspace_pair_solution(a: AffineSubspace, b: AffineSubspace, witness):
    """Exact solution set of two affine subspaces through a common witness."""
    witness = as_point(witness)
    exact = AffineSubspace(witness, subspace_intersection(a.basis, b.basis))
    return SolutionSet((a, b), witness, exact)


def dr_fixed_point_frame(a: AffineSubspace, b: AffineSubspace, witness):
    """Exact fixed points of Douglas-Rachford on two affine subspaces through
    a common witness: the witness plus the meet of the direction spaces and
    the meet of the normal spaces."""
    meet = subspace_intersection(a.basis, b.basis)
    normal_meet = subspace_intersection(a.normal_basis, b.normal_basis)
    return AffineSubspace.from_span(witness, np.vstack([meet, normal_meet]))
