"""Microbenchmarks: one ``project`` per set variant, ``distance_many`` per
row, and one operator ``step``, at a fixed set of seeded points.

They explain ``wall_s`` on ``multistart`` and the tangency trace in
``suite``, which are mostly per-step projections.  Each timing is the
median of ``REPEATS`` repetitions; each result is checked once outside the
timed loops.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from workloads import Op

POINTS = 512      # points per project/step repetition
ROWS = 8192       # rows per distance_many call
REPEATS = 7
HALF_SQRT2 = math.sqrt(2.0) / 2.0


def _median_time(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def sizes():
    return {"points": POINTS, "rows": ROWS, "repeats": REPEATS}


def run(pf, seed):
    """Return (metrics, ops) for the set and operator microbenchmarks."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, size=(POINTS, 2))
    rows = rng.uniform(-2.0, 2.0, size=(ROWS, 2))
    line = pf.AffineSubspace.from_span([0.0, 0.0], [[1.0, 0.0]])
    sets = {
        "Affine": pf.AffineSubspace.from_span([0.0, 0.0], [[1.0, 1.0]]),
        "Ball": pf.Ball([0.0, 1.0], 1.0),
        "Sphere": pf.Sphere([0.0, 0.0], 1.0),
        "Union": pf.UnionOfSubspaces.cross(2),
        "Kinked": pf.KinkedRegion(),
    }
    operators = {
        # the tangency pair under MAP and the circle/line pair under DR
        "map": pf.AlternatingProjections(line, sets["Ball"]),
        "dr": pf.DouglasRachford(sets["Sphere"], pf.AffineSubspace.from_span([0.0, HALF_SQRT2], [[1.0, 0.0]])),
    }
    metrics, ops = {}, []
    for name, s in sets.items():
        t = _median_time(lambda: [s.project(x) for x in points])
        metrics[f"sets.project_us.{name}"] = t / POINTS * 1e6
        t = _median_time(lambda: s.distance_many(rows))
        metrics[f"sets.distance_many_us_per_row.{name}"] = t / ROWS * 1e6
        outcomes = [s.project(x) for x in points]
        on_set = all(s.contains(o.selected) for o in outcomes)
        exact = all(
            math.isclose(o.distance, float(np.linalg.norm(x - o.selected)), rel_tol=1e-12, abs_tol=1e-15)
            for x, o in zip(points, outcomes)
        )
        agree = np.allclose(s.distance_many(points), [o.distance for o in outcomes], rtol=1e-12, atol=1e-15)
        ok = on_set and exact and agree
        ops.append(Op(f"micro.{name}", ok, "" if ok else f"on_set={on_set} exact={exact} agree={agree}"))
    for name, op in operators.items():
        t = _median_time(lambda: [op.step(x) for x in points])
        metrics[f"operators.step_us.{name}"] = t / POINTS * 1e6
        ok = all(np.array_equal(op.step(x), op.apply(x).selected) for x in points)
        ops.append(Op(f"micro.step.{name}", ok, "" if ok else "step and apply disagree"))
    return metrics, ops
