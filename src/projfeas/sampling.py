"""Deterministic sample generation for the supremum estimators.

All estimators are sampled suprema.  Samples come from seeded, scrambled
Halton sequences, which are prefix-nested: the first ``n`` points drawn for a
given seed are a prefix of the first ``2n``.  The scramble is Owen's
random-permutation Halton (A. B. Owen, "A randomized Halton algorithm in R",
arXiv:1706.02808); ``qmc_unit`` computes it with numpy in the order of
``scipy.stats.qmc.Halton(d, scramble=True, seed=s).random(n)``, and the
tests pin the two to the same bytes.  ``ball_points`` turns the sequence into
Gaussian directions through ``_ndtri``, S. L. Moshier's Cephes rational
approximation of the inverse normal CDF, written in numpy in the same form
and order of operations as the C ``ndtri`` that ``scipy.special`` ships; its
logarithms go through ``math.log``, which is the C library's ``log`` that
the C code calls, because numpy's vectorised ``np.log`` can differ from it
in the last bit.  Every chart maps the coordinates of ``chart_coords``,
quasirandom rows followed by a dyadic radius ladder ``delta * 2**-j`` whose
depth grows with ``log2(n)``, so suprema attained in shrinking-ratio limits
(points sliding into a corner or a tangency) are approached at a fixed rate
per doubling of the sample budget, and doubling the budget never decreases
an estimate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import complement_basis, row_norms


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


QMC_CACHE = 32  # distinct (n, dim, seed) sequences kept; one suite of presets draws 9


@functools.lru_cache(maxsize=QMC_CACHE)
def qmc_unit(n, dim, seed):
    """First ``n`` points of the seeded scrambled Halton sequence in [0,1)^dim.

    Coordinate ``i`` is the radical inverse of the point index in the
    ``i``-th prime base, with digit ``j`` mapped through its own random
    permutation.  The sums run digit by digit, vectorised over the points;
    past the digits of ``n - 1`` every digit is 0 and adds the same
    ``terms[j, 0]`` to every point.  Calls are memoized, so the array is
    shared and read-only.
    """
    if n <= 0:
        out = np.zeros((0, dim))
        out.flags.writeable = False
        return out
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
            # floor_divide by a scalar is numpy's fast integer path; divmod is not
            quot = q // base
            seq += row[q - quot * base]
            q = quot
        for term in terms[live:, 0].tolist():
            seq += term
    out.flags.writeable = False
    return out.T  # the (n, dim) transpose that scipy returns, same strides


_EXP_M2 = 0.13533528323661269189  # exp(-2): where the central form hands over
_SQRT_2PI = 2.50662827463100050242
# Cephes ndtri coefficients, leading coefficient first.  The leading 1 of Q0
# and Q1 is written out: 1.0 * x is exact, so ``_horner`` is cephes' p1evl.
# Central form, |y - 1/2| <= 1/2 - exp(-2): P0 / Q0 in (y - 1/2)**2.
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# Tails, 2 <= x = sqrt(-2 log y) < 8: P1 / Q1 in z = 1 / x.
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)


def _horner(x, coef):
    """Cephes ``polevl``: ``(c0 * x + c1) * x + c2 ...``, one rounding per step."""
    acc = coef[0] * x
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _log(a):
    """The C library's ``log`` of each element, as the C ``ndtri`` takes it."""
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


def _ndtri(y):
    """Inverse standard normal CDF, bit for bit Cephes ``ndtri``.

    Domain: ``exp(-32) < y < 1 - exp(-32)`` (about 1.3e-14 from either end),
    which holds the ``[1e-12, 1 - 1e-12]`` that ``ball_points`` clips to.
    Cephes' third form, for ``x = sqrt(-2 log y) >= 8``, is left out, and
    such inputs (or ``y`` outside ``(0, 1)``) raise ``ValueError``; NaN
    gives NaN, as in Cephes.  Upper tails are mirrored through ``1 - y``.
    Returns a new C-ordered array of ``y``'s shape, as
    ``scipy.special.ndtri(y, order="C")`` does.
    """
    y = np.asarray(y, dtype=float)
    shape = y.shape
    y = y.ravel()
    upper = y > 1.0 - _EXP_M2
    t = np.where(upper, 1.0 - y, y)
    # the central form on every element (its terms stay in [0, 1/4]), in
    # cephes' order: y + y * (y2 * P0(y2) / Q0(y2)), then * sqrt(2 pi)
    c = t - 0.5
    c2 = c * c
    out = c2 * _horner(c2, _P0) / _horner(c2, _Q0)
    out = (c + c * out) * _SQRT_2PI
    # the tails overwrite theirs: x - log(x) / x - z * P1(z) / Q1(z), with
    # the logarithms taken on the tail elements alone
    tail = np.flatnonzero(t <= _EXP_M2)
    x = np.sqrt(-2.0 * _log(t[tail]))
    if x.size and not x.max() < 8.0:
        raise ValueError("_ndtri: y is within exp(-32) of 0 or 1")
    z = 1.0 / x
    x = x - _log(x) / x - z * _horner(z, _P1) / _horner(z, _Q1)
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(shape)


def ladder_depth(n):
    # four levels past log2(n) so ratio limits are resolved well below the
    # quasirandom scale; still advances one level per budget doubling
    return max(0, int(math.floor(math.log2(max(n, 1))))) + 4


def dyadic_ladder(n):
    """Radii ``2**-j`` for j = 0 .. ladder_depth(n); nested as ``n`` doubles."""
    return 2.0 ** -np.arange(ladder_depth(n) + 1, dtype=float)


def ball_points(center, radius, n, seed):
    """Deterministic points filling the closed ball of a radius ``>= 0``:
    the center, then ``n`` quasirandom points."""
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    u = qmc_unit(n, d + 1, seed)
    # Cephes ndtri, the bytes of scipy.special.ndtri (math.log for its logs:
    # numpy's np.log is not the C library's).  Its output is C-ordered, not
    # the F order of the Halton columns: the matrix products downstream may
    # round differently by layout
    g = _ndtri(np.clip(u[:, :d], 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    dirs = g / norms[:, None]
    radii = radius * u[:, d] ** (1.0 / d)
    pts = center + radii[:, None] * dirs
    return np.vstack([center[None, :], pts])


def chart_coords(n, k, seed, reach, rungs):
    """Chart coordinates in ``k`` dimensions: the ``n`` scrambled-Halton rows
    of ``[-reach, reach]**k``, each coordinate clamped up to ``rungs[-1]`` in
    magnitude with its sign kept, then ``+rung`` and ``-rung`` along each
    axis, rung by rung."""
    t = (2.0 * qmc_unit(n, k, seed) - 1.0) * reach
    t = np.where(t >= 0, 1.0, -1.0) * np.maximum(np.abs(t), rungs[-1])
    ladder = rungs[:, None, None, None] * np.eye(k)[:, None] * np.array([[1.0], [-1.0]])
    return np.vstack([t, ladder.reshape(-1, k)])


def _in_ball(points, anchor, delta):
    points = np.asarray(points, dtype=float).reshape(-1, len(anchor))
    keep = np.linalg.norm(points - anchor, axis=1) <= delta * (1 + 1e-12)
    return points[keep]


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
    if d > 1:
        rungs = np.fromiter(map(math.tan, (phi_cap * dyadic_ladder(n)).tolist()), float)
        V = n0 + chart_coords(n, d - 1, seed, s_max, rungs) @ W
        # quasirandom rows are normalized, then scaled; ladder rows scaled, then
        # divided by their norms: the two round apart, and estimates read both
        pts.append(center + radius * (V[:n] / np.linalg.norm(V[:n], axis=1)[:, None]))
        pts.append(center + radius * V[n:] / row_norms(V[n:])[:, None])
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
