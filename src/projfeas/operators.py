"""Fixed-point operators assembled from projectors and reflectors.

The two algorithms are alternating projections (project onto ``b``, then
onto ``a``) and Douglas-Rachford (average of the composed reflectors with
the identity).  Douglas-Rachford is evaluated through its projector
form ``P_a(2z - x) - z + x`` with ``z = P_b(x)``, which needs two projector
calls instead of two reflector calls and therefore keeps multi-valuedness
localized; the averaged-reflector form is kept as an independent code path
for the equivalence check.

Each operator writes its composition once, in ``_stages``, over the rows of
an ``(m, dim)`` array and with the projection onto a set passed in.
``step_many`` passes the selecting projection, each set's ``project_many``,
so iterations follow the one deterministic ``selected`` branch; ``step`` and
``apply`` (which also keeps the named intermediate points) evaluate it on a
batch of one.  ``branch_apply`` passes ``branches_many``, which lists every
branch on a new leading axis: the composition broadcasts over those axes,
and the full branch set of the output, deduplicated and sorted, is capped at
``BRANCH_CAP`` points for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_point
from .sets import ClosedSet

BRANCH_CAP = 64  # branch_apply lists at most this many output branches
FORMS_TOL = 1e-10  # the two Douglas-Rachford forms agree to this, relatively


@dataclass(frozen=True)
class StepRecord:
    """One application of an operator: the selected output plus the named
    intermediate points that produced it."""

    selected: np.ndarray
    intermediates: dict


def _selected(s, X):
    return s.project_many(X)


def _listed(s, X):
    return s.branches_many(X)


class FixedPointOperator:
    """An operator built from the closed sets ``a`` and ``b`` of one
    ambient dimension."""

    dim: int

    def __init__(self, a: ClosedSet, b: ClosedSet):
        if a.dim != b.dim:
            raise ValueError("sets have mixed ambient dimensions")
        self.a = a
        self.b = b
        self.dim = a.dim

    def _stages(self, X, project=_selected):
        """The named intermediate points of every row of an ``(m, dim)``
        array as a dict of arrays, and the output; ``project(s, X)`` is the
        projection onto a set ``s``."""
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

    def branch_apply(self, x):
        """All output branches (deduplicated, lexicographically sorted)."""
        Y = self._stages(as_point(x, self.dim)[None], _listed)[1][..., 0, :]
        # first projection's branches outermost, as nested loops list them:
        # of two branches that sort as equal, the first listed is kept
        Y = Y.transpose(tuple(range(Y.ndim - 2, -1, -1)) + (Y.ndim - 1,))
        return _dedup_sorted(list(Y.reshape(-1, self.dim)))

    def constituent_sets(self):
        """The closed sets this operator is built from, in (a, b) order."""
        return (self.a, self.b)


def _dedup_sorted(points):
    out = []
    for p in sorted(points, key=lambda q: tuple(q)):
        if not any(np.linalg.norm(p - q) <= 1e-12 for q in out):
            out.append(p)
    return out[:BRANCH_CAP]


class AlternatingProjections(FixedPointOperator):
    """x -> P_a(P_b(x)); one application is a full projection cycle."""

    def _stages(self, X, project=_selected):
        Y = project(self.b, X)
        return {"project_b": Y}, project(self.a, Y)


class DouglasRachford(FixedPointOperator):
    """x -> P_a(2 P_b(x) - x) - P_b(x) + x  (the projector form)."""

    def _stages(self, X, project=_selected):
        Z = project(self.b, X)
        R = 2.0 * Z - X
        W = project(self.a, R)
        return {"project_b": Z, "reflect_b": R, "project_a_reflect_b": W}, W - Z + X


def averaged_reflector_form(a, b, x):
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
    return selected, _dedup_sorted(branches)


def dr_two_forms_agree(a, b, x):
    """True iff the averaged-reflector and projector forms of one
    Douglas-Rachford step produce the same selected point and branch set, to
    ``FORMS_TOL`` relative to ``max(1, |x|)``."""
    x = as_point(x, a.dim)
    op = DouglasRachford(a, b)
    sel_proj = op.step(x)
    branches_proj = op.branch_apply(x)
    sel_refl, branches_refl = averaged_reflector_form(a, b, x)
    scale = max(1.0, float(np.linalg.norm(x)))
    if np.linalg.norm(sel_proj - sel_refl) > FORMS_TOL * scale:
        return False
    if len(branches_proj) != len(branches_refl):
        return False
    return all(
        np.linalg.norm(p - q) <= FORMS_TOL * scale
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
