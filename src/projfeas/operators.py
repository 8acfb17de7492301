"""Fixed-point operators assembled from projectors and reflectors.

Two algorithms are first-class: alternating projections (project onto ``b``,
then onto ``a``) and Douglas-Rachford (average of the composed reflectors
with the identity).  Douglas-Rachford is evaluated through its projector
form ``P_a(2z - x) - z + x`` with ``z = P_b(x)``, which needs two projector
calls instead of two reflector calls and therefore keeps multi-valuedness
localized; the averaged-reflector form is kept as an independent code path
for the equivalence check.

Compositions act on the deterministic ``selected`` branch.  Each operator
writes its formula once, in ``_stages``, over the rows of an ``(m, dim)``
array: ``step_many`` keeps its output, and ``step`` and ``apply`` (which also
keeps the named intermediate points) evaluate it on a batch of one.  Full
branch-set composition is available through ``branch_apply`` for
diagnostics and is capped at ``BRANCH_CAP`` points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_point
from .sets import ClosedSet

BRANCH_CAP = 64
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class StepRecord:
    """One application of an operator: the selected output plus the named
    intermediate points that produced it."""

    selected: np.ndarray
    intermediates: dict


class FixedPointOperator:
    dim: int

    def _stages(self, X):
        """The named intermediate points of every row of an ``(m, dim)``
        array as a dict of arrays, and the selected output."""
        raise NotImplementedError

    def apply(self, x) -> StepRecord:
        parts, out = self._stages(as_point(x, self.dim)[None])
        return StepRecord(out[0], {name: p[0] for name, p in parts.items()})

    def step(self, x):
        """Selected output only."""
        return self.step_many(as_point(x, self.dim)[None])[0]

    def step_many(self, X):
        """Selected output for every row of an ``(m, dim)`` array; the hot
        path for iteration loops.  Unvalidated, like ``project_many``."""
        return self._stages(X)[1]

    def branch_apply(self, x, cap=BRANCH_CAP):
        """All output branches (deduplicated, lexicographically sorted)."""
        raise NotImplementedError

    def constituent_sets(self):
        """The closed sets this operator is built from, in (a, b) order."""
        return ()


def _dedup_sorted(points, cap):
    out = []
    for p in sorted(points, key=lambda q: tuple(q)):
        if not any(np.linalg.norm(p - q) <= 1e-12 for q in out):
            out.append(p)
    return out[:cap]


class SingleProjector(FixedPointOperator):
    def __init__(self, s: ClosedSet):
        self.s = s
        self.dim = s.dim

    def _stages(self, X):
        return {}, self.s.project_many(X)

    def branch_apply(self, x, cap=BRANCH_CAP):
        return _dedup_sorted(self.s.project(as_point(x, self.dim)).branches, cap)

    def constituent_sets(self):
        return (self.s,)


class SingleReflector(FixedPointOperator):
    def __init__(self, s: ClosedSet):
        self.s = s
        self.dim = s.dim

    def _stages(self, X):
        return {}, 2.0 * self.s.project_many(X) - X

    def branch_apply(self, x, cap=BRANCH_CAP):
        return _dedup_sorted(self.s.reflect(as_point(x, self.dim)).branches, cap)

    def constituent_sets(self):
        return (self.s,)


class AlternatingProjections(FixedPointOperator):
    """x -> P_a(P_b(x)); one application is a full projection cycle."""

    def __init__(self, a: ClosedSet, b: ClosedSet):
        if a.dim != b.dim:
            raise ValueError("sets have mixed ambient dimensions")
        self.a = a
        self.b = b
        self.dim = a.dim

    def _stages(self, X):
        Y = self.b.project_many(X)
        return {"project_b": Y}, self.a.project_many(Y)

    def branch_apply(self, x, cap=BRANCH_CAP):
        x = as_point(x, self.dim)
        out = []
        for y in self.b.project(x).branches:
            out.extend(self.a.project(y).branches)
        return _dedup_sorted(out, cap)

    def constituent_sets(self):
        return (self.a, self.b)


class DouglasRachford(FixedPointOperator):
    """x -> P_a(2 P_b(x) - x) - P_b(x) + x  (the projector form)."""

    def __init__(self, a: ClosedSet, b: ClosedSet):
        if a.dim != b.dim:
            raise ValueError("sets have mixed ambient dimensions")
        self.a = a
        self.b = b
        self.dim = a.dim

    def _stages(self, X):
        Z = self.b.project_many(X)
        R = 2.0 * Z - X
        W = self.a.project_many(R)
        return {"project_b": Z, "reflect_b": R, "project_a_reflect_b": W}, W - Z + X

    def branch_apply(self, x, cap=BRANCH_CAP):
        x = as_point(x, self.dim)
        out = []
        for z in self.b.project(x).branches:
            for w in self.a.project(2.0 * z - x).branches:
                out.append(w - z + x)
        return _dedup_sorted(out, cap)

    def constituent_sets(self):
        return (self.a, self.b)


class Companion(FixedPointOperator):
    """x -> 2 T(x) - x; nonexpansive exactly when T is firmly nonexpansive."""

    def __init__(self, inner: FixedPointOperator):
        self.inner = inner
        self.dim = inner.dim

    def _stages(self, X):
        T = self.inner.step_many(X)
        return {"inner": T}, 2.0 * T - X

    def branch_apply(self, x, cap=BRANCH_CAP):
        x = as_point(x, self.dim)
        return _dedup_sorted([2.0 * p - x for p in self.inner.branch_apply(x, cap)], cap)

    def constituent_sets(self):
        return self.inner.constituent_sets()


class Combination(FixedPointOperator):
    """Convex combination of operators, weights summing to one."""

    def __init__(self, terms):
        terms = [(float(w), op) for w, op in terms]
        if not terms:
            raise ValueError("combination needs at least one term")
        if any(w < 0 for w, _ in terms):
            raise ValueError("combination weights must be non-negative")
        total = sum(w for w, _ in terms)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"combination weights sum to {total}, not 1")
        dims = {op.dim for _, op in terms}
        if len(dims) != 1:
            raise ValueError("combination terms have mixed dimensions")
        self.terms = terms
        self.dim = dims.pop()

    def _stages(self, X):
        parts = {}
        acc = np.zeros(X.shape)
        for i, (w, op) in enumerate(self.terms):
            parts[f"term_{i}"] = op.step_many(X)
            acc = acc + w * parts[f"term_{i}"]
        return parts, acc

    def branch_apply(self, x, cap=BRANCH_CAP):
        x = as_point(x, self.dim)
        combos = [np.zeros(self.dim)]
        for w, op in self.terms:
            term_branches = op.branch_apply(x, cap)
            combos = [acc + w * p for acc in combos for p in term_branches][: cap * 4]
        return _dedup_sorted(combos, cap)

    def constituent_sets(self):
        sets = []
        for _, op in self.terms:
            sets.extend(op.constituent_sets())
        return tuple(sets)


def identity_operator(dim):
    """Identity realized as the projector onto the full space."""
    from .linalg import AffineFrame
    from .sets import AffineSubspace

    return SingleProjector(AffineSubspace(AffineFrame.full_space(dim)))


def averaged_reflector_form(a, b, x, cap=BRANCH_CAP):
    """Douglas-Rachford branches via the averaged-reflector path
    ``(R_a(R_b(x)) + x) / 2``; selected branch first, full set second."""
    x = as_point(x, a.dim)
    rb = b.reflect(x)
    ra_sel = a.reflect(rb.selected)
    selected = 0.5 * (ra_sel.selected + x)
    branches = []
    for r in rb.branches:
        for q in a.reflect(r).branches:
            branches.append(0.5 * (q + x))
    return selected, _dedup_sorted(branches, cap)


def dr_two_forms_agree(a, b, x, tol=1e-10):
    """True iff the averaged-reflector and projector forms of one
    Douglas-Rachford step produce the same selected point and branch set."""
    x = as_point(x, a.dim)
    op = DouglasRachford(a, b)
    sel_proj = op.step(x)
    branches_proj = op.branch_apply(x)
    sel_refl, branches_refl = averaged_reflector_form(a, b, x)
    scale = max(1.0, float(np.linalg.norm(x)))
    if np.linalg.norm(sel_proj - sel_refl) > tol * scale:
        return False
    if len(branches_proj) != len(branches_refl):
        return False
    return all(
        np.linalg.norm(p - q) <= tol * scale
        for p, q in zip(branches_proj, branches_refl)
    )


def check_step_energy_identity(a, b, x, y):
    """Residual of the energy identity satisfied by one Douglas-Rachford step.

    With ``x+ = T(x)`` and the corresponding reflector point
    ``x~ = 2 x+ - x`` (same for ``y``), the step satisfies

        |x+ - y+|^2 + |(x - x+) - (y - y+)|^2
            = 0.5 |x - y|^2 + 0.5 |x~ - y~|^2

    exactly, for any branch selection.  Returns the absolute residual, which
    is pure floating-point noise (<= 1e-9 times the squared scale).
    """
    op = DouglasRachford(a, b)
    x = as_point(x, a.dim)
    y = as_point(y, a.dim)
    xp = op.step(x)
    yp = op.step(y)
    xt = 2.0 * xp - x
    yt = 2.0 * yp - y
    lhs = np.linalg.norm(xp - yp) ** 2 + np.linalg.norm((x - xp) - (y - yp)) ** 2
    rhs = 0.5 * np.linalg.norm(x - y) ** 2 + 0.5 * np.linalg.norm(xt - yt) ** 2
    return abs(float(lhs - rhs))
