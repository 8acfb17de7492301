"""Built-in experiment presets: the five model geometries plus the kinked
region, one ``PRESETS`` entry each.

An entry gives its preset's sets, in ``a, b`` order, its algorithm (``map`` or
``dr``), start, witness, budget, delta sweep and, where it has one, its exact
solution set.  It holds the geometry helpers below rather than sets, so
importing builds no geometry and ``preset`` builds fresh sets and arrays on
every call.

The pairs are oriented so that the set reflected first (``b``) is affine
whenever one of the two is, which is the orientation the rate guarantees for
the reflection algorithm need.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .config import (
    AlgorithmSpec,
    BallStart,
    BudgetSpec,
    ExperimentConfig,
    OutputSpec,
    PointStart,
    RegularitySpec,
    SolutionSpec,
)
from .sets import AffineSubspace, Ball, KinkedRegion, Sphere, UnionOfSubspaces

HALF_SQRT2 = math.sqrt(2.0) / 2.0


def _line2(direction, offset=(0.0, 0.0)):
    return AffineSubspace.from_span(offset, [direction])


def two_lines_2d():
    """The x-axis and the diagonal in the plane."""
    return _line2((1.0, 0.0)), _line2((1.0, 1.0))


def two_lines_3d():
    """The same pair embedded in three dimensions."""
    a = AffineSubspace.from_span([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]])
    b = AffineSubspace.from_span([0.0, 0.0, 0.0], [[1.0, 1.0, 0.0]])
    return a, b


def line_and_ball():
    """The x-axis and the unit ball tangent to it at the origin."""
    return _line2((1.0, 0.0)), Ball([0.0, 1.0], 1.0)


def cross_and_diagonal():
    """The coordinate axes (a nonconvex cross) and the diagonal."""
    return UnionOfSubspaces.cross(2), _line2((1.0, 1.0))


def circle_and_line():
    """The unit circle and the horizontal line crossing it transversally."""
    circle = Sphere([0.0, 0.0], 1.0)
    line = AffineSubspace.from_span([0.0, HALF_SQRT2], [[1.0, 0.0]])
    return circle, line


def _circle_line_solution():
    return UnionOfSubspaces(AffineSubspace([x, HALF_SQRT2]) for x in (HALF_SQRT2, -HALF_SQRT2))


class _Preset(NamedTuple):
    sets: Callable  # () -> the sets, in a, b order
    algorithm: str | None  # map, dr, or None: the estimators alone
    start: tuple | None  # (PointStart, point) or (BallStart, center, radius, count)
    witness: tuple
    max_iters: int
    tol: float
    deltas: tuple
    exact: Callable | None = None  # () -> the exact solution set


DELTAS = (1.0, 0.5, 0.25, 0.125)
ORIGIN = (0.0, 0.0)
ORIGIN3 = (0.0, 0.0, 0.0)
CIRCLE_LINE_WITNESS = (HALF_SQRT2, HALF_SQRT2)
CIRCLE_LINE_START = (PointStart, (HALF_SQRT2 + 0.05, HALF_SQRT2 + 0.05))

PRESETS = {
    "example-i": _Preset(two_lines_2d, "dr", (PointStart, (1.0, 0.0)), ORIGIN, 500, 1e-10, DELTAS),
    "example-i-map": _Preset(two_lines_2d, "map", (PointStart, (1.0, 0.0)), ORIGIN, 500, 1e-10, DELTAS),
    "example-ii": _Preset(two_lines_3d, "dr", (PointStart, (0.0, 0.0, 1.0)), ORIGIN3, 500, 1e-10, DELTAS),
    "example-ii-inplane": _Preset(two_lines_3d, "dr", (PointStart, (1.0, 0.5, 0.0)), ORIGIN3, 500, 1e-10,
                                  DELTAS),
    # project onto the ball, then back onto the line
    "example-iii": _Preset(line_and_ball, "map", (PointStart, (1.0, 0.0)), ORIGIN, 1_000_000, 1e-6, DELTAS),
    # reflect across the line first, then across the ball
    "example-iii-dr": _Preset(lambda: line_and_ball()[::-1], "dr", (BallStart, (0.0, 1.0), 1.5, 24), ORIGIN,
                              3000, 1e-9, DELTAS),
    "example-iv": _Preset(cross_and_diagonal, "dr", (BallStart, ORIGIN, 1.0, 100), ORIGIN, 400, 1e-8, DELTAS),
    "example-iv-map": _Preset(cross_and_diagonal, "map", (BallStart, ORIGIN, 1.0, 100), ORIGIN, 400, 1e-8,
                              DELTAS),
    "example-v": _Preset(circle_and_line, "dr", CIRCLE_LINE_START, CIRCLE_LINE_WITNESS, 400, 1e-13,
                         (0.1, 0.05, 0.025), _circle_line_solution),
    "example-v-map": _Preset(circle_and_line, "map", CIRCLE_LINE_START, CIRCLE_LINE_WITNESS, 400, 1e-13,
                             (0.1, 0.05, 0.025), _circle_line_solution),
    "kinked-regularity": _Preset(lambda: (KinkedRegion(),), None, None, ORIGIN, 1000, 1e-10, (1.0,)),
}

# runs handled by the suite runner rather than a single config
SWEEPS = ("subspace-iff",)


def preset(name):
    """A fresh config of the preset ``name``: its sets and arrays are its own."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    p = PRESETS[name]
    sets = dict(zip("AB" if p.algorithm else "K", p.sets()))
    start = p.start and p.start[0](np.array(p.start[1], dtype=float), *p.start[2:])
    return ExperimentConfig(
        name=name,
        sets=sets,
        solution=SolutionSpec(np.array(p.witness, dtype=float), tuple(sets), p.exact and p.exact()),
        algorithm=p.algorithm and AlgorithmSpec(p.algorithm, "A", "B"),
        start=start,
        budget=BudgetSpec(p.max_iters, p.tol),
        regularity=RegularitySpec(p.deltas, 4096, 7),
        outputs=OutputSpec(f"{name}.trace.csv", f"{name}.report.txt"),
    )
