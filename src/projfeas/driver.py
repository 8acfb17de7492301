"""Fixed-point iteration engine: traces, rate fitting and fixed-point probes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (  # noqa: F401  complement_basis: perfbench/tracing.py counts calls through it
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
BLOCK_ROWS = 4096  # bound on steps x running rows per block of the iteration loop
CSV_CHUNK_ROWS = 1000  # trace rows formatted and written at a time
TAIL_FRACTION = 0.5  # share of the usable trace entries that fit_rate fits


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


def _check_budget(max_iters, tol):
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")


def _advance(op, X, sol, max_iters, tol, record=None):
    """Picard iteration of every row of a validated ``(m, d)`` array.

    A row stops on ``dist_to_s < tol`` before a step ("tolerance"); after a
    step, on the iterate norm exceeding ``DIVERGENCE_NORM`` ("divergence"),
    then on a step shorter than ``STAGNATION_STEP`` ("tolerance" if the step
    landed within ``tol``, else "stagnation": a fixed point away from the
    intersection); and otherwise on exhausting ``max_iters``.

    The running rows are stepped in blocks of K steps into a ``(K + 1, m,
    d)`` buffer, and the stop tests are evaluated once per block; each row
    is cut at its first stop and the steps past it are discarded.  K starts
    at one and doubles, so a run that stops early wastes fewer steps than it
    took, and K times the running rows stays within ``BLOCK_ROWS``.  Every
    operation acts on each row alone, so a row's result depends neither on
    the others nor on the blocking.  Rows past a divergence may overflow:
    the block runs under ``np.errstate`` and only iterates up to each row's
    first divergence or stagnation reach ``sol.distance_many``.

    ``record(n, Xs, ds, steps)`` sees the starts (``n = 0``, a block of one,
    ``steps`` None, ``ds`` a view that the loop overwrites as rows stop) and
    then each block: ``Xs[j]`` holds the ``(n + j)``-th iterates of the rows
    running at the block's start, in ascending order, ``ds[j]`` their
    distances to the solution set and ``steps[j]`` the norms of the steps
    that led to them.  A row's entries past its stop are not part of its
    iteration.  Returns the final iterates, their distances to the solution
    set, the stop reasons and the steps taken, per row.
    """
    finals = X.copy()
    dists = sol.distance_many(X)
    stops = np.full(X.shape[0], "tolerance", dtype=object)
    used = np.zeros(X.shape[0], dtype=int)
    if record is not None:
        record(0, X[None], dists[None], None)
    rows = np.flatnonzero(~(dists < tol))
    x, d, n, k = X[rows], dists[rows], 0, 1
    while rows.size and n < max_iters:
        k = min(k, max_iters - n, max(1, BLOCK_ROWS // rows.size))
        B = np.empty((k + 1,) + x.shape)
        B[0] = x
        with np.errstate(all="ignore"):
            for j in range(k):
                B[j + 1] = op.step_many(B[j])
            steps = row_norms(B[1:] - B[:-1])
            diverged = row_norms(B[1:]) > DIVERGENCE_NORM
        halted = diverged | (steps < STAGNATION_STEP)
        live = np.ones_like(halted)
        live[1:] = ~np.logical_or.accumulate(halted[:-1])
        D = np.full(steps.shape, np.inf)
        D[live] = sol.distance_many(B[1:][live])
        if record is not None:
            record(n + 1, B[1:], D, steps)
        done = halted | (D < tol)
        ends = done.any(axis=0)
        if ends.any():
            j, cols = done.argmax(axis=0)[ends], np.flatnonzero(ends)
            stopped, d_end = rows[ends], D[j, cols]
            finals[stopped], dists[stopped], used[stopped] = B[j + 1, cols], d_end, n + j + 1
            stops[stopped[~(d_end < tol)]] = "stagnation"
            stops[stopped[diverged[j, cols]]] = "divergence"
        rows, x, d = rows[~ends], B[k, ~ends], D[k - 1, ~ends]
        n, k = n + k, 2 * k
    finals[rows], dists[rows], used[rows] = x, d, max_iters
    stops[rows] = "max_iters"
    return finals, dists, stops, used


def iterate_many(op: FixedPointOperator, X0, sol: SolutionSet, max_iters=1000, tol=1e-12):
    """One ``IterationTrace`` per row of ``X0``, all cut out of the blocks
    of one ``_advance`` over the rows.

    Row ``i``'s ``used[i] + 1`` iterates and distances, and its ``used[i]``
    steps, lie back to back in row order in one buffer each.  Each block is
    dropped once it is scattered into them, so the recorded rows are held
    once, not twice, and each trace is a view of the buffers."""
    _check_budget(max_iters, tol)
    blocks = []

    def record(n, xs, ds, steps):
        if steps is None:  # the starts: ds is a view of the distances _advance overwrites
            ds = ds.copy()
        blocks.append((n, xs, ds, steps))

    _, _, stops, used = _advance(op, as_points(X0, op.dim), sol, max_iters, tol, record)
    total = used.size + int(used.sum())
    first = np.cumsum(used + 1) - used - 1  # row i's first entry; its steps start at first[i] - i
    X, D, S = np.empty((total, op.dim)), np.empty(total), np.empty(total - used.size)

    def scatter(n, xs, ds, steps):
        # the running rows stay in order: the block's columns are the rows with used >= n
        rows, j = np.flatnonzero(used >= n), np.arange(xs.shape[0])[:, None]
        keep, at = j <= used[rows] - n, first[rows] + n + j
        X[at[keep]], D[at[keep]] = xs[keep], ds[keep]
        if steps is not None:  # the step to a row's iterate t is its step t - 1
            S[(at - rows - 1)[keep]] = steps[keep]

    while blocks:
        scatter(*blocks.pop())
    A, B = np.empty(total), np.empty(total)
    for i in range(0, total, BLOCK_ROWS):  # rows are independent: chunks bound the temporaries
        chunk = X[i : i + BLOCK_ROWS]
        A[i : i + BLOCK_ROWS], B[i : i + BLOCK_ROWS] = op.a.distance_many(chunk), op.b.distance_many(chunk)
    traces = []
    for i, (f, u, stop) in enumerate(zip(first.tolist(), used.tolist(), stops)):
        row = slice(f, f + u + 1)
        traces.append(IterationTrace(X[row], A[row], B[row], D[row], S[f - i : f - i + u], stop))
    return traces


def iterate(op: FixedPointOperator, x0, sol: SolutionSet, max_iters=1000, tol=1e-12):
    """Run the Picard iteration with the deterministic branch selection.

    Stops on ``dist_to_s < tol`` ("tolerance"), on exhausting ``max_iters``,
    on a step shorter than ``STAGNATION_STEP`` while still off the solution
    set ("stagnation": a fixed point away from the intersection), or on the
    iterate norm exceeding ``DIVERGENCE_NORM`` ("divergence").  This is the
    batch of one of ``iterate_many``.
    """
    return iterate_many(op, as_point(x0, op.dim)[None], sol, max_iters, tol)[0]


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


def fit_rate(trace: IterationTrace):
    """Fit ``log dist_to_s ~ slope * n`` over the trailing part of the trace.

    Uses the trailing ``TAIL_FRACTION`` of entries with distance above 1e-14
    (earlier iterates are transient); needs at least ten usable entries.
    """
    usable = np.flatnonzero(trace.dist_to_s > 1e-14)
    if usable.size < 10:
        raise ValueError(f"only {usable.size} usable entries; need at least 10")
    k = max(2, int(math.ceil(TAIL_FRACTION * usable.size)))
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
    fixed_point_frame: AffineSubspace | None


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
        if isinstance(op.a, AffineSubspace) and isinstance(op.b, AffineSubspace):
            meet = subspace_intersection(op.a.basis, op.b.basis)
            normal_meet = subspace_intersection(op.a.normal_basis, op.b.normal_basis)
            frame = AffineSubspace.from_span(
                sol.witness, np.vstack([meet, normal_meet]) if meet.size + normal_meet.size else []
            )
    return ProbeResult(limits=limits, fixed_point_frame=frame)


def trace_to_csv(trace: IterationTrace, path):
    """Write ``iter, x_0..x_{d-1}, dist_A, dist_B, dist_S, step_norm`` rows
    with CRLF line ends, each value as ``%.17g`` (round-trip exact); the
    final row has no forward step and leaves the field empty.  Rows are
    formatted and written ``CSV_CHUNK_ROWS`` at a time, so a long trace never
    exists as one string or one stacked array."""
    d = trace.iterates.shape[1]
    head = "%d" + ",%.17g" * (d + 3)
    row, final = head + ",%.17g\r\n", head + ",\r\n"
    cols = (trace.iterates, trace.dist_to_a, trace.dist_to_b, trace.dist_to_s)
    last = len(trace) - 1
    with open(path, "w", newline="") as fh:
        names = [f"x_{i}" for i in range(d)] + ["dist_A", "dist_B", "dist_S", "step_norm"]
        fh.write(",".join(["iter"] + names) + "\r\n")
        for i in range(0, last, CSV_CHUNK_ROWS):
            j = min(i + CSV_CHUNK_ROWS, last)
            chunk = np.column_stack([np.arange(i, j)] + [c[i:j] for c in cols] + [trace.step_norms[i:j]])
            fh.write((row * (j - i)) % tuple(chunk.ravel().tolist()))
        x, dist_a, dist_b, dist_s = (c[last] for c in cols)
        fh.write(final % (last, *x.tolist(), dist_a, dist_b, dist_s))
