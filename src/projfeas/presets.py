"""Built-in experiment presets: the five model geometries plus the kinked
region, each with its witness point and a recommended delta sweep.

The pairs are oriented so that the set reflected first (``b``) is affine
whenever one of the two is, which is the orientation the rate guarantees for
the reflection algorithm need.
"""

from __future__ import annotations

import math

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


def _cfg(name, sets, algorithm, start, witness, budget, deltas, exact=None, seed=7, samples=4096):
    return ExperimentConfig(
        name=name,
        sets=sets,
        solution=SolutionSpec(
            np.asarray(witness, dtype=float),
            tuple(sets.keys())[:2] if algorithm is None else (algorithm.a, algorithm.b),
            exact,
        ),
        algorithm=algorithm,
        start=start,
        budget=budget,
        regularity=RegularitySpec(tuple(deltas), samples, seed),
        outputs=OutputSpec(f"{name}.trace.csv", f"{name}.report.txt"),
    )


def example_i(algorithm="dr"):
    a, b = two_lines_2d()
    name = "example-i" if algorithm == "dr" else "example-i-map"
    return _cfg(
        name,
        {"A": a, "B": b},
        AlgorithmSpec(algorithm, "A", "B"),
        PointStart(np.array([1.0, 0.0])),
        [0.0, 0.0],
        BudgetSpec(max_iters=500, tol=1e-10),
        deltas=(1.0, 0.5, 0.25, 0.125),
    )


def example_ii(inplane=False):
    a, b = two_lines_3d()
    if inplane:
        start = PointStart(np.array([1.0, 0.5, 0.0]))
        name = "example-ii-inplane"
    else:
        start = PointStart(np.array([0.0, 0.0, 1.0]))
        name = "example-ii"
    return _cfg(
        name,
        {"A": a, "B": b},
        AlgorithmSpec("dr", "A", "B"),
        start,
        [0.0, 0.0, 0.0],
        BudgetSpec(max_iters=500, tol=1e-10),
        deltas=(1.0, 0.5, 0.25, 0.125),
    )


def example_iii(algorithm="map"):
    line, ball = line_and_ball()
    if algorithm == "map":
        # project onto the ball, then back onto the line
        return _cfg(
            "example-iii",
            {"A": line, "B": ball},
            AlgorithmSpec("map", "A", "B"),
            PointStart(np.array([1.0, 0.0])),
            [0.0, 0.0],
            BudgetSpec(max_iters=1_000_000, tol=1e-6),
            deltas=(1.0, 0.5, 0.25, 0.125),
        )
    # reflect across the line first, then across the ball
    return _cfg(
        "example-iii-dr",
        {"A": ball, "B": line},
        AlgorithmSpec("dr", "A", "B"),
        BallStart(np.array([0.0, 1.0]), radius=1.5, count=24),
        [0.0, 0.0],
        BudgetSpec(max_iters=3000, tol=1e-9),
        deltas=(1.0, 0.5, 0.25, 0.125),
    )


def example_iv(algorithm="dr"):
    cross, diag = cross_and_diagonal()
    name = "example-iv" if algorithm == "dr" else "example-iv-map"
    return _cfg(
        name,
        {"A": cross, "B": diag},
        AlgorithmSpec(algorithm, "A", "B"),
        BallStart(np.zeros(2), radius=1.0, count=100),
        [0.0, 0.0],
        BudgetSpec(max_iters=400, tol=1e-8),
        deltas=(1.0, 0.5, 0.25, 0.125),
    )


def example_v(algorithm="dr"):
    circle, line = circle_and_line()
    name = "example-v" if algorithm == "dr" else "example-v-map"
    witness = np.array([HALF_SQRT2, HALF_SQRT2])
    return _cfg(
        name,
        {"A": circle, "B": line},
        AlgorithmSpec(algorithm, "A", "B"),
        PointStart(witness + np.array([0.05, 0.05])),
        witness,
        BudgetSpec(max_iters=400, tol=1e-13),
        deltas=(0.1, 0.05, 0.025),
        exact=_circle_line_solution(),
    )


def kinked_regularity():
    return _cfg(
        "kinked-regularity",
        {"K": KinkedRegion()},
        None,
        None,
        [0.0, 0.0],
        BudgetSpec(),
        deltas=(1.0,),
    )


PRESETS = {
    "example-i": lambda: example_i("dr"),
    "example-i-map": lambda: example_i("map"),
    "example-ii": lambda: example_ii(False),
    "example-ii-inplane": lambda: example_ii(True),
    "example-iii": lambda: example_iii("map"),
    "example-iii-dr": lambda: example_iii("dr"),
    "example-iv": lambda: example_iv("dr"),
    "example-iv-map": lambda: example_iv("map"),
    "example-v": lambda: example_v("dr"),
    "example-v-map": lambda: example_v("map"),
    "kinked-regularity": kinked_regularity,
}

# runs handled by the suite runner rather than a single config
SWEEPS = ("subspace-iff",)


def preset(name):
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]()
