"""Fixed-point iteration engine: traces, rate fitting and fixed-point probes."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    AffineFrame,
    as_point,
    as_points,
    complement_basis,
    row_norms,
    subspace_intersection,
)
from .operators import DouglasRachford, FixedPointOperator
from .regularity import Region
from .sets import AffineSubspace
from .solution import SolutionSet

STAGNATION_STEP = 1e-15  # below this, the iterate is a numerical fixed point
DIVERGENCE_NORM = 1e12


@dataclass
class IterationTrace:
    """Picard iteration record.

    ``iterates`` has one row per recorded point (the start included), the
    distance arrays have matching length, and ``step_norms`` is one entry
    shorter with ``step_norms[n] == |iterates[n+1] - iterates[n]|``.
    """

    iterates: np.ndarray
    dist_to_a: np.ndarray
    dist_to_b: np.ndarray
    dist_to_s: np.ndarray
    step_norms: np.ndarray
    stop_reason: str

    def __len__(self):
        return self.iterates.shape[0]

    @property
    def final(self):
        return self.iterates[-1]

    @property
    def final_dist_to_s(self):
        return float(self.dist_to_s[-1])


def _pair_sets(op):
    sets = op.constituent_sets()
    if len(sets) >= 2:
        return sets[0], sets[1]
    if len(sets) == 1:
        return sets[0], sets[0]
    raise ValueError("operator exposes no constituent sets to trace distances to")


def _check_budget(max_iters, tol):
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")


def _advance(op, X, sol, max_iters, tol, record=None):
    """Picard iteration of every row of a validated ``(m, d)`` array.

    Only the rows still running are stepped; a row that stops keeps its last
    iterate.  A row stops on ``dist_to_s < tol`` before a step
    ("tolerance"); after a step, on the iterate norm exceeding
    ``DIVERGENCE_NORM`` ("divergence"), then on a step shorter than
    ``STAGNATION_STEP`` ("tolerance" if the step landed within ``tol``, else
    "stagnation": a fixed point away from the intersection); and otherwise
    on exhausting ``max_iters``.  Every operation acts on each row alone, so
    a row's result does not depend on the others.

    ``record(n, X_n, dist_to_s, step_norms)`` sees the ``n``-th iterates of
    the rows still running, from the starts (``n = 0``, ``step_norms`` None)
    on, with the norms of the steps that led to them.  Returns the final
    iterates, their distances to the solution set, the stop reasons and the
    steps taken, per row.
    """
    finals = X.copy()
    dists = sol.distance_many(X)
    stops = np.full(X.shape[0], "tolerance", dtype=object)
    used = np.zeros(X.shape[0], dtype=int)
    if record is not None:
        record(0, X, dists, None)
    rows = np.flatnonzero(~(dists < tol))
    x, d = X[rows], dists[rows]
    for n in range(max_iters):
        if rows.size == 0:
            break
        x_next = op.step_many(x)
        steps = row_norms(x_next - x)
        d = sol.distance_many(x_next)
        x = x_next
        if record is not None:
            record(n + 1, x, d, steps)
        diverged = row_norms(x) > DIVERGENCE_NORM
        stagnant = steps < STAGNATION_STEP
        done = diverged | stagnant | (d < tol)
        if done.any():
            stopped = rows[done]
            finals[stopped], dists[stopped], used[stopped] = x[done], d[done], n + 1
            stops[stopped[stagnant[done] & ~(d[done] < tol)]] = "stagnation"
            stops[stopped[diverged[done]]] = "divergence"
            rows, x, d = rows[~done], x[~done], d[~done]
    finals[rows], dists[rows], used[rows] = x, d, max_iters
    stops[rows] = "max_iters"
    return finals, dists, stops, used


def iterate(op: FixedPointOperator, x0, sol: SolutionSet, max_iters=1000, tol=1e-12):
    """Run the Picard iteration with the deterministic branch selection.

    Stops on ``dist_to_s < tol`` ("tolerance"), on exhausting ``max_iters``,
    on a step shorter than ``STAGNATION_STEP`` while still off the solution
    set ("stagnation": a fixed point away from the intersection), or on the
    iterate norm exceeding ``DIVERGENCE_NORM`` ("divergence").  This is the
    batch of one of the loop behind ``probe_fixed_points``.
    """
    _check_budget(max_iters, tol)
    a, b = _pair_sets(op)
    x = as_point(x0, op.dim)
    X = np.empty((max_iters + 1, op.dim))
    d_s = np.empty(max_iters + 1)
    steps = np.empty(max_iters)

    def record(n, x_n, dist_to_s, step_norms):
        X[n], d_s[n] = x_n[0], dist_to_s[0]
        if n:
            steps[n - 1] = step_norms[0]

    _, _, stops, used = _advance(op, x[None], sol, max_iters, tol, record)
    used = int(used[0])
    X = X[: used + 1].copy()
    return IterationTrace(
        iterates=X,
        dist_to_a=a.distance_many(X),
        dist_to_b=b.distance_many(X),
        dist_to_s=d_s[: used + 1].copy(),
        step_norms=steps[:used].copy(),
        stop_reason=stops[0],
    )


@dataclass
class RateFit:
    """Least-squares geometric rate of the tail of ``dist_to_s``.

    ``linear`` requires a clean fit (r_squared >= 0.98) at a rate bounded
    away from one (<= 0.999).
    """

    observed_rate: float
    r_squared: float
    tail_start: int
    linear: bool


def fit_rate(trace: IterationTrace, tail_fraction=0.5):
    """Fit ``log dist_to_s ~ slope * n`` over the trailing part of the trace.

    Uses the trailing ``tail_fraction`` of entries with distance above 1e-14
    (earlier iterates are transient); needs at least ten usable entries.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    usable = np.flatnonzero(trace.dist_to_s > 1e-14)
    if usable.size < 10:
        raise ValueError(f"only {usable.size} usable entries; need at least 10")
    k = max(2, int(math.ceil(tail_fraction * usable.size)))
    tail = usable[-k:]
    n = tail.astype(float)
    y = np.log(trace.dist_to_s[tail])
    slope, intercept = np.polyfit(n, y, 1)
    pred = slope * n + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else max(0.0, 1.0 - ss_res / ss_tot)
    rate = float(np.exp(slope))
    return RateFit(
        observed_rate=rate,
        r_squared=r2,
        tail_start=int(tail[0]),
        linear=bool(r2 >= 0.98 and rate <= 0.999),
    )


@dataclass
class ProbeResult:
    """Limit points of sampled starts, classified by distance to the
    solution set; for an affine Douglas-Rachford pair also the exact
    fixed-point subspace (intersection plus the meet of the normal spaces)."""

    limits: list
    fixed_point_frame: AffineFrame | None


def probe_fixed_points(op, region: Region, samples, seed, sol: SolutionSet,
                       max_iters=2000, tol=1e-9):
    """Iterate from sampled starting points until stagnation or tolerance and
    report each limit with its distance to the solution set.  All starts
    advance together as one array, each with the stop rules of ``iterate``."""
    _check_budget(max_iters, tol)
    starts = as_points(region.sample(samples, seed), op.dim)
    finals, dists, _, _ = _advance(op, starts, sol, max_iters, tol)
    limits = list(zip(finals, dists.tolist()))
    frame = None
    if isinstance(op, DouglasRachford):
        a, b = op.constituent_sets()
        if isinstance(a, AffineSubspace) and isinstance(b, AffineSubspace):
            meet = subspace_intersection(a.frame.basis, b.frame.basis)
            normal_meet = subspace_intersection(
                complement_basis(a.frame.basis, op.dim),
                complement_basis(b.frame.basis, op.dim),
            )
            frame = AffineFrame.from_span(
                sol.witness, np.vstack([meet, normal_meet]) if meet.size + normal_meet.size else []
            )
    return ProbeResult(limits=limits, fixed_point_frame=frame)


def trace_to_csv(trace: IterationTrace, path):
    """Write ``iter, x_0..x_{d-1}, dist_A, dist_B, dist_S, step_norm`` rows;
    the final row has no forward step and leaves the field empty."""
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

