"""Estimators for the constants that drive the linear-rate guarantees.

The constants are defined as suprema over continua, so every estimator here
reports the supremum over a deterministic, seeded, prefix-nested sample set:
a lower bound that never decreases when the sample budget doubles.  Rates
predicted from estimated constants are therefore optimistic; callers that
certify observed rates against them inflate the estimates by
``SAFETY_INFLATION`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (  # noqa: F401  complement_basis: perfbench/tracing.py counts calls through it
    as_points,
    complement_basis,
    largest_principal_cosine,
    orthonormalize,
    row_norms,
    subspace_intersection,
)
from .sampling import ball_points, on_set_points
from .sets import AffineSubspace, ClosedSet
from .solution import SolutionSet

DEFAULT_SAMPLES = 4096
SAFETY_INFLATION = 1.05
STRONG_REGULARITY_TOL = 1e-6
BLOCK_PAIRS = 1 << 16  # sample x target pairs per kernel block: bounds its scratch memory
PRUNE_ROWS = 64        # rows per bounded block of a group: the unit the pruning bound covers
COINCIDENT = 1e-14     # pairs this close, relative to the largest coordinate, are skipped


def eps_tilde_projector(eps):
    """Firm-nonexpansiveness violation of a projector onto a set with
    subregularity constant ``eps``."""
    return 2.0 * eps + 2.0 * eps**2


def eps_tilde_reflector(eps):
    """Nonexpansiveness violation of the corresponding reflector."""
    return 4.0 * eps + 4.0 * eps**2


def eps_tilde_douglas_rachford(eps_a, eps_b):
    """Firm-nonexpansiveness violation of the Douglas-Rachford step built
    from sets with subregularity constants ``eps_a`` and ``eps_b``."""
    qa = eps_a * (1.0 + eps_a)
    qb = eps_b * (1.0 + eps_b)
    return 2.0 * qa + 2.0 * qb + 8.0 * qa * qb


def _sup_alignment(X, comps, targets):
    """``max(0, sup <v, (t - x) / |t - x|>)`` over rows ``x`` of ``X``, unit
    normals ``v`` of the cone ``comps`` gives ``x`` and targets ``t`` apart
    from ``x``.

    A pair is coincident, and skipped, when ``|t - x|`` is at most
    ``COINCIDENT`` times the largest coordinate magnitude of ``X`` and
    ``targets``, so scaling both by a power of two moves no bit of the
    result.  The rows of a group with one basis per row are compared with
    every target; those of a shared basis block by block with the targets
    that can still raise the supremum (``_group_sup``).
    """
    scale = max(float(np.max(np.abs(X), initial=0.0)), float(np.max(np.abs(targets), initial=0.0)))
    best = 0.0
    for g in comps.groups:
        best = _group_sup(X[g.rows], g, targets, scale, best)
    return best


def _group_sup(rows, g, targets, scale, best):
    """``max(best, sup)`` of the alignments of the group ``g`` of ``rows``
    with ``targets``, bit for bit, from the pairs that can exceed ``best``.

    A group with one basis per row meets every target.  The rows of a
    shared basis are cut into compact blocks of at most ``PRUNE_ROWS`` rows
    (``_compact_blocks``).  A block with centre ``c`` and radius ``r`` (each
    row ``x`` within ``r`` of ``c``) has ``|t - x| >= |t - c| - r``, so every
    pair of the block and a target ``t`` aligns at most

    - ``(<w, t> - min_x <w, x>) / (|t - c| - r)`` for a ray ``w``,
    - ``(|W (t - c)| + r) / (|t - c| - r)`` for a subspace with orthonormal
      basis ``W``, as ``|W (c - x)| <= |c - x| <= r``,

    when the denominator is positive.  ``best`` is first raised by the
    block's highest-bound target, then the block meets only the targets
    whose bound, widened by the rounding slack, reaches ``best``; the rest
    cannot hold a pair above it.  Targets whose denominator does not exceed
    the slack get an infinite bound and are always compared.  Each pair is
    still computed by ``_block_sup``, elementwise, so which pairs are
    compared moves no bit of the maximum.  A group meets at most
    ``2 * PRUNE_ROWS`` targets unbounded: that many pairs per row cost about
    what a block's bound does.

    The slack.  Let ``u = 2**-53``, ``d`` the dimension and ``S = scale``:
    every coordinate, of ``c`` too, is at most ``S`` in magnitude, so every
    difference of points has norm at most ``2 sqrt(d) S``.  A computed
    difference of coordinates is within ``u`` of itself, a sum of ``d``
    products within ``d u`` of the sum of their magnitudes, a square root
    within ``u``.  Carried through, a computed norm ``|y|`` is within
    ``(d/2 + 2) u |y|``, and the computed numerator and denominator, the
    slack added in, within ``(2 d**2 + (2 d + 16) sqrt(d)) u S`` of their
    exact values; the subspace numerator, whose ``k <= d`` projections add
    ``sqrt(k) d u |t - c|``, is the largest.  ``slack = 8 (d + 2)**2 u``
    exceeds that over ``S``, so the computed ``num + slack S`` and
    ``den - slack S`` bound the exact ones from above and below.  A computed
    pair value is within ``(d**1.5 + d + 7) u`` of the exact alignment of
    its two points, and the bound's division and widening round by at most
    ``2 u`` below ``best <= 1 + slack``: together below ``slack``, by which
    the bound is widened.  Every quantity scales with ``S``, so a
    power-of-two scaling of the points prunes the same pairs.
    """
    coincident = COINCIDENT * scale
    if g.per_row:
        B = g.basis.transpose(1, 2, 0)[:, :, :, None]  # (k, dim, rows, 1)

        def align(U, block):
            planes = [_dot(U, b[:, block]) for b in B]
            if g.one_sided or len(planes) == 1:  # a ray's <v, u>, a line's |<v, u>|
                return planes[0] if g.one_sided else np.abs(planes[0])
            return _norm(planes)

        return max(best, _block_sup(rows, targets, align, coincident))
    if g.one_sided:
        w = g.basis[0]

        def align(U, _):
            return _dot(U, w)
    else:
        W = g.basis

        def align(U, _):
            return _norm([_dot(U, b) for b in W])

    if rows.shape[0] == 0 or targets.shape[0] <= 2 * PRUNE_ROWS:
        return max(best, _block_sup(rows, targets, align, coincident))
    slack = 8 * (rows.shape[1] + 2) ** 2 * 2.0**-53
    pad = slack * scale
    for idx in _compact_blocks(rows):
        block = rows[idx]
        bound = _block_bound(block, targets, g, pad)
        finite = np.isfinite(bound)
        if finite.any():
            top = int(np.argmax(np.where(finite, bound, -np.inf)))
            best = max(best, _block_sup(block, targets[top : top + 1], align, coincident))
        best = max(best, _block_sup(block, targets[bound + slack >= best], align, coincident))
    return best


def _block_bound(block, targets, g, pad):
    """Bound on the alignment of every row of ``block`` with each target
    under the group ``g``, as ``_group_sup`` derives it; infinite where the
    denominator does not exceed ``pad``.  Its per-target temporaries are
    freed on return, before the block's pairs are computed."""
    c = 0.5 * (block.min(axis=0) + block.max(axis=0))
    r = float(np.max(_norm((block - c).T)))
    to_t = (targets - c).T
    den = _norm(to_t) - (r + pad)
    if g.one_sided:
        w = g.basis[0]
        num = (targets @ w + pad) - np.min(block @ w)
    else:
        num = _norm([_dot(to_t, b) for b in g.basis]) + (r + pad)
    return np.divide(num, den, out=np.full(den.shape, np.inf), where=den > 0)


def _compact_blocks(rows):
    """Index arrays of at most ``PRUNE_ROWS`` rows each, covering ``rows``:
    the rows are halved at a multiple of ``PRUNE_ROWS`` along their widest
    coordinate until a part fits, so each block spans a small box."""
    parts, blocks = [np.arange(rows.shape[0])], []
    while parts:
        idx = parts.pop()
        if idx.shape[0] <= PRUNE_ROWS:
            blocks.append(idx)
            continue
        sub = rows[idx]
        idx = idx[np.argsort(sub[:, np.argmax(np.ptp(sub, axis=0))], kind="stable")]
        half = -(-idx.shape[0] // (2 * PRUNE_ROWS)) * PRUNE_ROWS
        parts += [idx[half:], idx[:half]]
    return blocks


def _dot(U, w):
    """``sum_k w[k] * U[k]`` over the leading (coordinate) axis."""
    out = w[0] * U[0]
    for k in range(1, U.shape[0]):
        out += w[k] * U[k]
    return out


def _norm(planes):
    """Euclidean norm over a list of coordinate planes, summed in order."""
    sq = planes[0] * planes[0]
    for p in planes[1:]:
        sq += p * p
    return np.sqrt(sq)


def _block_sup(rows, targets, align, coincident):
    """Largest ``align(U, block)`` over unit differences from ``rows[block]``
    to ``targets``, skipping pairs no more than ``coincident`` apart;
    ``-inf`` when there are none.

    ``U`` holds one coordinate plane per leading index, ``U[k, i, j]`` being
    coordinate ``k`` of ``(t_j - x_i) / |t_j - x_i|``.  Works through at most
    ``BLOCK_PAIRS`` pairs at once."""
    best = -math.inf
    if rows.shape[0] == 0 or targets.shape[0] == 0:
        return best
    t_step = min(targets.shape[0], BLOCK_PAIRS)
    r_step = max(1, BLOCK_PAIRS // t_step)
    R, T = rows.T.copy(), targets.T.copy()
    for i in range(0, rows.shape[0], r_step):
        block = slice(i, i + r_step)
        for j in range(0, targets.shape[0], t_step):
            diffs = T[:, None, j : j + t_step] - R[:, block, None]
            norms = _norm(diffs)
            apart = norms > coincident
            if apart.any():
                U = diffs / np.where(apart, norms, 1.0)
                best = max(best, float(np.max(align(U, block)[apart])))
    return best


def estimate_subregularity(s, sol: SolutionSet, delta, samples=DEFAULT_SAMPLES, seed=0):
    """Sampled subregularity constant of ``s`` with respect to the solution
    set, around the witness within radius ``delta``.

    Supremum of ``<v, xbar - x> / (|v| |xbar - x|)`` over set points ``x`` in
    the ball, unit proximal normals ``v`` at ``x`` and solution points
    ``xbar`` in the ball; clamped to ``[0, 1]``.  Zero for convex sets.
    """
    return _sampled_alignment(s, sol.witness, delta, samples, seed,
                              lambda X: sol.sample_points(delta, max(64, samples // 8), seed + 1))


def estimate_pair_regularity(s, anchor, delta, samples=DEFAULT_SAMPLES, seed=0):
    """Sampled pair-regularity constant of ``s`` at ``anchor``: as
    ``estimate_subregularity`` but with the comparison points ranging over
    the set itself instead of a solution set."""
    return _sampled_alignment(s, np.asarray(anchor, dtype=float), delta, samples, seed, lambda X: X)


def _sampled_alignment(s, anchor, delta, samples, seed, targets):
    """``_sup_alignment`` of the set points ``X`` drawn near ``anchor`` with
    ``targets(X)``, clamped to ``[0, 1]``."""
    X = on_set_points(s, anchor, delta, samples, seed)
    if X.shape[0] == 0:
        raise ValueError("no set samples found in the ball; delta too small")
    return float(np.clip(_sup_alignment(X, s.normal_components(X), targets(X)), 0.0, 1.0))


def estimate_kappa(a, b, sol: SolutionSet, delta, samples=DEFAULT_SAMPLES, seed=0):
    """Sampled local linear-regularity modulus of the pair at the witness.

    Supremum of ``dist(x, S) / max(dist(x, a), dist(x, b))`` over ambient
    ball samples plus on-set samples of both sets (whose dyadic ladders drive
    the supremum when it is infinite, as at a tangency: refining the budget
    then roughly doubles the estimate per doubling).
    """
    anchor = sol.witness
    X = np.vstack([
        ball_points(anchor, delta, samples, seed),
        on_set_points(a, anchor, delta, max(16, samples // 4), seed + 2),
        on_set_points(b, anchor, delta, max(16, samples // 4), seed + 3),
    ])
    d_s = sol.distance_many(X)
    gap = np.maximum(a.distance_many(X), b.distance_many(X))
    mask = gap > 1e-12
    if not mask.any():
        raise ValueError("all samples lie in both sets; nothing to estimate")
    return float(np.max(d_s[mask] / gap[mask]))


def _opposition(parts_a, parts_b):
    """Worst opposition ``sup -<u, v>`` over unit normals ``u``, ``v`` taken
    from one component of each cone, floored at zero.  Each cone is given as
    ``cone_parts()``: an ``(m, dim)`` array of rays and a list of ``(m, k,
    dim)`` stacks of orthonormal subspace bases."""
    rays_a, subs_a = parts_a
    rays_b, subs_b = parts_b
    best = 0.0
    if rays_a.shape[0] and rays_b.shape[0]:
        best = max(best, float(np.max(-(rays_a @ rays_b.T))))
    for rays, subs in ((rays_a, subs_b), (rays_b, subs_a)):
        if rays.shape[0]:
            step = max(1, BLOCK_PAIRS // rays.shape[0])
            for S in subs:
                for i in range(0, S.shape[0], step):
                    coords = rays @ S[i : i + step].swapaxes(-1, -2)
                    best = max(best, float(np.max(np.linalg.norm(coords, axis=-1))))
    for Sa in subs_a:
        for Sb in subs_b:
            best = max(best, _largest_cosine(Sa, Sb))
    return best


def _largest_cosine(Sa, Sb):
    """Largest principal cosine over all pairs of subspaces from two stacks."""
    step = max(1, BLOCK_PAIRS // Sb.shape[0])
    best = 0.0
    for i in range(0, Sa.shape[0], step):
        products = Sa[i : i + step, None] @ Sb[None].swapaxes(-1, -2)
        best = max(best, float(np.max(np.linalg.svd(products, compute_uv=False)[..., 0])))
    return best


def estimate_c(a, b, anchor, delta, samples=DEFAULT_SAMPLES, seed=0):
    """Worst opposition ``max(0, sup -<u, v>)`` between unit proximal normals
    of the two sets at points within ``delta`` of ``anchor``.

    For a pair of affine subspaces this is exact: the largest principal
    cosine between the two normal spaces.
    """
    anchor = np.asarray(anchor, dtype=float)
    if isinstance(a, AffineSubspace) and isinstance(b, AffineSubspace):
        return largest_principal_cosine(a.normal_basis, b.normal_basis)
    Xa = on_set_points(a, anchor, delta, samples, seed)
    Xb = on_set_points(b, anchor, delta, samples, seed + 1)
    best = _opposition(a.normal_components(Xa).cone_parts(), b.normal_components(Xb).cone_parts())
    return float(np.clip(best, 0.0, 1.0))


def check_strong_regularity(a, b, point):
    """Whether the limiting normal cones at ``point`` oppose only trivially,
    i.e. no unit normal of one set is (nearly) the negative of a unit normal
    of the other.

    Exact for affine pairs via the rank of the stacked direction bases; for
    the other variants the analytic limiting cones are compared component by
    component with alignment threshold ``1 - STRONG_REGULARITY_TOL``.
    """
    point = np.asarray(point, dtype=float)
    if not (a.contains(point) and b.contains(point)):
        raise ValueError("point is not in the intersection")
    if isinstance(a, AffineSubspace) and isinstance(b, AffineSubspace):
        # normal spaces meet trivially iff the direction spans fill the space
        stacked = np.vstack([a.frame.basis, b.frame.basis])
        rank = orthonormalize(stacked).shape[0] if stacked.size else 0
        return bool(rank == a.dim)
    # a zero cone has no components, and its opposition with any cone is 0
    na = a.limiting_normals(point).cone_parts()
    nb = b.limiting_normals(point).cone_parts()
    return bool(_opposition(na, nb) <= 1.0 - STRONG_REGULARITY_TOL)


def friedrichs_cosine(frame_a, frame_b):
    """Cosine of the angle between two subspaces modulo their intersection.

    Exact: the largest principal cosine between ``A n (A n B)^perp`` and
    ``B n (A n B)^perp``; zero when either factor is trivial.
    """
    if frame_a.dim_ambient != frame_b.dim_ambient:
        raise ValueError("frames have mixed ambient dimensions")
    meet = subspace_intersection(frame_a.basis, frame_b.basis)

    def _mod_meet(basis):
        if basis.shape[0] == 0:
            return basis
        if meet.shape[0] == 0:
            return basis
        reduced = basis - (basis @ meet.T) @ meet
        return orthonormalize(reduced)

    a_part = _mod_meet(frame_a.basis)
    b_part = _mod_meet(frame_b.basis)
    if a_part.shape[0] == 0 or b_part.shape[0] == 0:
        return 0.0
    return largest_principal_cosine(a_part, b_part)


@dataclass(frozen=True)
class Region:
    """A sampling region: a ball, optionally restricted to a set."""

    center: np.ndarray
    radius: float
    within: ClosedSet | None = None

    def sample(self, n, seed):
        center = np.asarray(self.center, dtype=float)
        if self.within is None:
            return ball_points(center, self.radius, n, seed)
        return on_set_points(self.within, center, self.radius, n, seed)


def verify_coercivity(op, sol: SolutionSet, lam, region: Region, samples=512, seed=0):
    """Worst sampled margin of ``|x - T x| >= lam * dist(x, S)``.

    A non-negative return certifies the coercivity hypothesis on the sample;
    points of the solution set contribute a zero margin.
    """
    X = as_points(region.sample(samples, seed), op.dim)
    margins = row_norms(X - op.step_many(X)) - lam * sol.distance_many(X)
    return float(min(margins, default=math.inf))


@dataclass
class RegularityReport:
    """Estimated constants plus the rates they predict.

    ``predicted_rate_map`` is a per-cycle factor (one full alternating
    projection), ``predicted_rate_dr`` a per-step factor.  Either may exceed
    one, in which case the matching ``*_certified`` flag is False and the
    value only signals "no guarantee".  ``inflation`` records the safety
    factor that was applied to the estimated constants.  ``friedrichs_cos``
    and ``strongly_regular`` stay None; they keep their keys in the report.
    """

    eps_a: float
    eps_b: float
    delta: float
    kappa: float
    gamma: float
    c: float
    eps_tilde_map: float
    eps_tilde_dr: float
    eta: float
    predicted_rate_map: float
    predicted_rate_dr: float
    regime: str
    map_certified: bool
    dr_certified: bool
    inflation: float = 1.0
    friedrichs_cos: float | None = None
    strongly_regular: bool | None = None

    def to_dict(self):
        return {k: v if isinstance(v, (bool, str)) or v is None else float(v)
                for k, v in vars(self).items()}


def predicted_rates(
    eps_a,
    eps_b,
    kappa,
    c,
    *,
    a_convex,
    b_convex,
    b_affine,
    delta,
    inflation=1.0,
):
    """Assemble a ``RegularityReport`` from raw constants.

    ``inflation > 1`` scales the estimated constants in the pessimistic
    direction (larger eps and kappa, larger c) before the rates are formed,
    compensating for the estimators being sampled lower bounds.
    """
    eps_a = float(eps_a) * inflation
    eps_b = float(eps_b) * inflation
    kappa = float(kappa) * inflation
    c = min(float(c) * inflation, 1.0)
    if kappa < 1.0:
        # the modulus is >= 1 by definition; sampling noise may undershoot
        kappa = 1.0
    gamma = 1.0 / kappa

    if a_convex and b_convex:
        regime = "both_convex"
        eps_map = 0.0
    elif a_convex or b_convex:
        regime = "one_convex"
        eps_map = eps_b if a_convex else eps_a
    else:
        regime = "both_nonconvex"
        eps_map = max(eps_a, eps_b)
    etm = eps_tilde_projector(eps_map)

    if regime == "both_convex":
        rate_map = 1.0 - gamma**2
        map_ok = rate_map < 1.0
    elif regime == "one_convex":
        rate_map = math.sqrt(max(1.0 - gamma**2 + etm, 0.0)) * math.sqrt(1.0 - gamma**2)
        cond = (1.0 - gamma**2) < 1e-15 or etm <= (2.0 * gamma - gamma**2) / (1.0 - gamma**2)
        map_ok = cond and rate_map < 1.0
    else:
        rate_map = 1.0 - gamma**2 + etm
        map_ok = etm <= gamma**2 and rate_map < 1.0

    etd = eps_tilde_douglas_rachford(eps_a, eps_b)
    eta = (1.0 - c) / kappa**2
    radicand = 1.0 + etd - eta
    rate_dr = math.sqrt(max(radicand, 0.0))
    dr_ok = bool(b_affine and c < 1.0 and radicand < 1.0 and radicand >= 0.0)

    return RegularityReport(
        eps_a=eps_a,
        eps_b=eps_b,
        delta=float(delta),
        kappa=kappa,
        gamma=gamma,
        c=c,
        eps_tilde_map=etm,
        eps_tilde_dr=etd,
        eta=eta,
        predicted_rate_map=rate_map,
        predicted_rate_dr=rate_dr,
        regime=regime,
        map_certified=bool(map_ok),
        dr_certified=dr_ok,
        inflation=float(inflation),
    )
