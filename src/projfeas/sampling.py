"""Deterministic sample generation for the supremum estimators.

All estimators are sampled suprema.  Samples come from seeded, scrambled
Halton sequences, which are prefix-nested: the first ``n`` points drawn for a
given seed are a prefix of the first ``2n``.  The scramble is Owen's
random-permutation Halton (A. B. Owen, "A randomized Halton algorithm in R",
arXiv:1706.02808); ``qmc_unit`` computes it with numpy in the order of
``scipy.stats.qmc.Halton(d, scramble=True, seed=s).random(n)``, and the
tests pin the two to the same bytes.  Every chart additionally mixes
in a dyadic radius ladder ``delta * 2**-j`` whose depth grows with
``log2(n)``, so suprema attained in shrinking-ratio limits (points sliding
into a corner or a tangency) are approached at a fixed rate per doubling of
the sample budget, and doubling the budget never decreases an estimate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

from .linalg import complement_basis


def _first_primes(k):
    primes = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _digit_terms(base, rng):
    """``terms[j, k]``: what digit ``j`` adds to a coordinate when it is ``k``.

    One shuffled ``arange(base)`` per digit that a double resolves:
    ``base**-k > 2**-54`` holds for ``k < 54 / log2(base)``, so digits past
    that count cannot change a float64 coordinate.  The scale
    ``base**-(j+1)`` is divided down digit by digit, as scipy rounds it.
    """
    count = math.ceil(54 / math.log2(base)) - 1
    perms = np.repeat(np.arange(base)[None], count, axis=0)
    for perm in perms:
        rng.shuffle(perm)
    b2r = [1.0 / base]
    while len(b2r) < count:
        b2r.append(b2r[-1] / base)
    return perms * np.array(b2r)[:, None]


def qmc_unit(n, dim, seed):
    """First ``n`` points of the seeded scrambled Halton sequence in [0,1)^dim.

    Coordinate ``i`` is the radical inverse of the point index in the
    ``i``-th prime base, with digit ``j`` mapped through its own random
    permutation.  The sums run digit by digit, vectorised over the points;
    past the digits of ``n - 1`` every digit is 0 and adds the same
    ``terms[j, 0]`` to every point.
    """
    if n <= 0:
        return np.zeros((0, dim))
    n = int(n)
    rng = np.random.default_rng(int(seed))
    out = np.zeros((dim, n))
    for seq, base in zip(out, _first_primes(dim)):
        terms = _digit_terms(base, rng)
        live = 0  # digits of the largest index, n - 1
        while base**live <= n - 1:
            live += 1
        q = np.arange(n, dtype=np.int64)
        for row in terms[:live]:
            q, r = np.divmod(q, base)
            seq += row[r]
        for term in terms[live:, 0].tolist():
            seq += term
    return out.T  # the (n, dim) transpose that scipy returns, same strides


def ladder_depth(n):
    # four levels past log2(n) so ratio limits are resolved well below the
    # quasirandom scale; still advances one level per budget doubling
    return max(0, int(math.floor(math.log2(max(n, 1))))) + 4


def dyadic_ladder(n):
    """Radii ``2**-j`` for j = 0 .. ladder_depth(n); nested as ``n`` doubles."""
    return 2.0 ** -np.arange(ladder_depth(n) + 1, dtype=float)


def ball_points(center, radius, n, seed, floor_radius=0.0):
    """Deterministic points filling the closed ball, center included.

    ``floor_radius`` pushes samples off the center out to that radius; the
    supremum estimators use it so that their finest resolved scale is the
    dyadic ladder, never a stray quasirandom point.
    """
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    u = qmc_unit(n, d + 1, seed)
    # order="C": a ufunc would keep the F order of the Halton columns, and
    # the matrix products downstream may round differently by layout
    g = ndtri(np.clip(u[:, :d], 1e-12, 1 - 1e-12), order="C")
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    dirs = g / norms[:, None]
    radii = np.maximum(radius * u[:, d] ** (1.0 / d), floor_radius)
    pts = center + radii[:, None] * dirs
    return np.vstack([center[None, :], pts])


def _clip_small(values, floor):
    """Clamp magnitudes below ``floor`` up to it, keeping signs."""
    signs = np.where(values >= 0, 1.0, -1.0)
    return signs * np.maximum(np.abs(values), floor)


def _in_ball(points, anchor, delta):
    points = np.asarray(points, dtype=float).reshape(-1, len(anchor))
    keep = np.linalg.norm(points - anchor, axis=1) <= delta * (1 + 1e-12)
    return points[keep]


def _affine_chart(frame, anchor, delta, n, seed):
    p0 = frame.project(anchor)
    k = frame.dim_subspace
    pts = [p0[None, :]]
    if k > 0:
        ladder = dyadic_ladder(n) * delta
        u = qmc_unit(n, k, seed)
        coeff = _clip_small((2.0 * u - 1.0) * delta, ladder[-1])
        pts.append(p0 + coeff @ frame.basis)
        for r in ladder:
            for i in range(k):
                step = r * frame.basis[i]
                pts.append(np.vstack([p0 + step, p0 - step]))
    return _in_ball(np.vstack(pts), anchor, delta)


def _boundary_chart(center, radius, anchor, delta, n, seed):
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    n0 = anchor - center
    nn = np.linalg.norm(n0)
    n0 = n0 / nn if nn > 1e-12 else np.eye(d)[0]
    W = complement_basis(n0[None, :], d)
    phi_max = 2.0 * math.asin(min(delta / (2.0 * radius), 1.0))
    phi_cap = min(phi_max, 1.45)
    s_max = math.tan(phi_cap) if phi_max < math.pi / 2 else 50.0
    pts = [(center + radius * n0)[None, :]]
    if d > 1 and W.shape[0]:
        ladder = dyadic_ladder(n)
        u = qmc_unit(n, d - 1, seed)
        t = _clip_small((2.0 * u - 1.0) * s_max, math.tan(phi_cap * ladder[-1]))
        dirs = n0 + t @ W
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts.append(center + radius * dirs)
        for r in ladder:
            ang = phi_cap * r
            for i in range(W.shape[0]):
                for sign in (1.0, -1.0):
                    v = n0 + sign * math.tan(ang) * W[i]
                    pts.append((center + radius * v / np.linalg.norm(v))[None, :])
    if delta >= 2.0 * radius - 1e-12:
        pts.append((center - radius * n0)[None, :])
    return _in_ball(np.vstack(pts), anchor, delta)


def on_set_points(s, anchor, delta, n, seed):
    """Deterministic points of ``s`` within ``delta`` of ``anchor``.

    Each variant's ``chart`` parameterizes it directly (basis coefficients
    for subspaces, angles for spheres and ball boundaries, edge coordinates
    for the kinked region) and includes the dyadic ladder toward the anchor.
    """
    return s.chart(np.asarray(anchor, dtype=float), delta, n, seed)
