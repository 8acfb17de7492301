"""Fixed-point operators assembled from projectors and reflectors.

The two algorithms are alternating projections (project onto ``b``, then
onto ``a``) and Douglas-Rachford (average of the composed reflectors with
the identity).  Douglas-Rachford is evaluated through its projector
form ``P_a(2z - x) - z + x`` with ``z = P_b(x)``, which needs two projector
calls instead of two reflector calls and therefore keeps multi-valuedness
localized.

Each operator writes its composition once, in ``_stages``, over the rows of
an ``(m, dim)`` array and with the projection onto a set passed in.
``step_many`` passes the selecting projection, each set's ``project_many``,
so iterations follow the one deterministic ``selected`` branch; ``step`` and
``apply`` (which also keeps the named intermediate points) evaluate it on a
batch of one.  Passing ``_listed``, each set's ``branches_many``, lists every
branch on a new leading axis, and the composition broadcasts over those
axes.  The two Douglas-Rachford checks read point arrays too:
``dr_two_forms_agree`` holds ``_stages`` to the averaged reflectors that each
set's ``reflect`` gives on every branch, and ``check_step_energy_identity``
reads the reflectors from the step's intermediate points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_point, as_points, row_norms
from .sets import ClosedSet

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


def dr_two_forms_agree(a, b, X):
    """For each row of an ``(m, dim)`` array, whether the projector form of a
    Douglas-Rachford step (``_stages``) and its averaged reflectors
    ``(R_a(R_b(x)) + x) / 2`` agree in every branch slot, slot 0 the selected
    one, to ``FORMS_TOL`` relative to ``max(1, |x|)``."""
    X = as_points(X, a.dim)
    W = DouglasRachford(a, b)._stages(X, _listed)[1]
    Rb = b.reflect(X)
    V = (a.reflect(Rb) + X) / 2.0
    gap = row_norms(W - V).reshape(-1, X.shape[0]).max(axis=0)
    return gap <= FORMS_TOL * np.maximum(1.0, row_norms(X))


def check_step_energy_identity(a, b, X, Y):
    """Residuals of the Douglas-Rachford energy identity, one per row pair of
    two ``(m, dim)`` arrays: with ``T`` the step and ``R = R_a R_b`` on the
    selected branches, ``T = (R + I) / 2`` gives
    ``|Tx - Ty|^2 + |(x - Tx) - (y - Ty)|^2 = (|x - y|^2 + |Rx - Ry|^2) / 2``.
    ``R`` comes from the step's intermediate points: as ``2T - I`` the
    identity would be the parallelogram law, which every map satisfies.  On a
    correct step a residual is rounding noise, at most 1e-9 of the squared
    scale."""
    op = DouglasRachford(a, b)
    X, Y = as_points(X, a.dim), as_points(Y, a.dim)
    (px, TX), (py, TY) = op._stages(X), op._stages(Y)
    RX = 2.0 * px["project_a_reflect_b"] - px["reflect_b"]  # R_a(R_b(x))
    RY = 2.0 * py["project_a_reflect_b"] - py["reflect_b"]
    lhs = row_norms(TX - TY) ** 2 + row_norms((X - TX) - (Y - TY)) ** 2
    return np.abs(lhs - (0.5 * row_norms(X - Y) ** 2 + 0.5 * row_norms(RX - RY) ** 2))
