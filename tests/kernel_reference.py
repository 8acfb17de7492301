"""Per-point references for the batched kernel.

The sets and operators write each formula once, over the rows of a point
array.  These are the formulas they had before that, on 1-D arrays: plain
matrix-vector products and ``np.linalg.norm`` of one point.  Tests compare
the package against them bit for bit.
"""

import csv

import numpy as np

from projfeas.operators import (
    AlternatingProjections,
    Combination,
    Companion,
    DouglasRachford,
    SingleProjector,
    SingleReflector,
)
from projfeas.sets import (
    CENTER_TOL,
    AffineSubspace,
    Ball,
    IntersectionSet,
    KinkedRegion,
    Sphere,
    UnionOfSubspaces,
    _select_ties,
)

def ref_frame(f, x):
    if f.dim_subspace == 0:
        return f.offset.copy()
    return f.offset + f.basis.T @ (f.basis @ (x - f.offset))


def ref_project(s, x):
    """(selected branch, distance) of one point."""
    if isinstance(s, AffineSubspace):
        p = ref_frame(s.frame, x)
        return p, float(np.linalg.norm(x - p))
    if isinstance(s, UnionOfSubspaces):
        cands = [(p, float(np.linalg.norm(x - p))) for p in (ref_frame(f, x) for f in s.frames)]
        out = _select_ties(cands, tie="order")
        return out.selected, out.distance
    if isinstance(s, (Ball, Sphere)):
        r = float(np.linalg.norm(x - s.center))
        if isinstance(s, Ball) and r <= s.radius:
            return x.copy(), 0.0
        if isinstance(s, Sphere) and r <= CENTER_TOL * max(1.0, s.radius):
            p = s.center.copy()
            p[0] += s.radius
            return p, abs(r - s.radius)
        return s.center + (s.radius / r) * (x - s.center), abs(r - s.radius)
    if isinstance(s, KinkedRegion):
        if s.contains(x, tol=0.0):
            return x.copy(), 0.0
        t = min((x[0] - x[1]) / 2.0, 0.0)
        cands = [np.array([t, -t]), np.array([max(x[0], 0.0), 0.0])]
        out = _select_ties([(p, float(np.linalg.norm(x - p))) for p in cands], tie="lex")
        return out.selected, out.distance
    raise TypeError(type(s))


def ref_distance(s, x):
    if isinstance(s, IntersectionSet):  # per point in the package itself
        return s.distance(x)
    return ref_project(s, x)[1]


def ref_sol_distance(sol, x):
    if sol.exact is not None:
        return ref_distance(sol.exact, x)
    return float(np.linalg.norm(x - sol.witness))


def ref_step(op, x):
    if hasattr(op, "point_step"):  # an operator defined by a test, with its own reference
        return op.point_step(x)
    if isinstance(op, SingleProjector):
        return ref_project(op.s, x)[0]
    if isinstance(op, SingleReflector):
        return 2.0 * ref_project(op.s, x)[0] - x
    if isinstance(op, AlternatingProjections):
        return ref_project(op.a, ref_project(op.b, x)[0])[0]
    if isinstance(op, DouglasRachford):
        z = ref_project(op.b, x)[0]
        return ref_project(op.a, 2.0 * z - x)[0] - z + x
    if isinstance(op, Companion):
        return 2.0 * ref_step(op.inner, x) - x
    if isinstance(op, Combination):
        acc = np.zeros(op.dim)
        for w, term in op.terms:
            acc = acc + w * ref_step(term, x)
        return acc
    raise TypeError(type(op))


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
