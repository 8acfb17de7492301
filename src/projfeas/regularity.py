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
from dataclasses import asdict, dataclass

import numpy as np

from .linalg import (  # noqa: F401  complement_basis: perfbench/tracing.py counts calls through it
    as_points,
    complement_basis,
    largest_principal_cosine,
    orthonormalize,
    principal_cosines,
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


def _sup_alignment(X, cone, targets):
    """``max(0, sup <v, (t - x) / |t - x|>)`` over rows ``x`` of ``X``, unit
    normals ``v`` of the cone ``cone`` (a tuple of normal groups) gives ``x``
    and targets ``t`` apart from ``x``.

    A pair is coincident, and skipped, when ``|t - x|`` is at most
    ``COINCIDENT`` times the largest coordinate magnitude of ``X`` and
    ``targets``, so scaling both by a power of two moves no bit of the
    result.  The rows of a group with one basis per row are compared with
    every target; those of a shared basis block by block with the targets
    that can still raise the supremum (``_group_sup``).
    """
    scale = max(float(np.max(np.abs(X), initial=0.0)), float(np.max(np.abs(targets), initial=0.0)))
    best = 0.0
    for g in cone:
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
    # a per-row basis as (k, dim, rows, 1), each basis vector indexed by the block
    W = g.basis.transpose(1, 2, 0)[:, :, :, None] if g.per_row else g.basis

    def align(U, block):
        planes = [_dot(U, b[:, block] if g.per_row else b) for b in W]
        return planes[0] if g.one_sided else _norm(planes)  # a ray's <v, u>, a span's |W u|

    if g.per_row or rows.shape[0] == 0 or targets.shape[0] <= 2 * PRUNE_ROWS:
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
    then roughly doubles the estimate per doubling).  It is 0 when every
    sample lies in both sets, as in a pair whose intersection has interior.
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
    return float(np.max(d_s[mask] / gap[mask], initial=0.0))


def _opposition(cone_a, cone_b):
    """Worst opposition ``sup -<u, v>`` over unit normals ``u``, ``v`` taken
    from one component of each cone (a tuple of normal groups), floored at
    zero.  The groups meet pair by pair: two rays by ``-<u, v>``, a ray and a
    span by the norm of the ray's coordinates in it, two spans by their
    largest principal cosine.  ``Sa`` and ``Sb`` stack a group's bases as
    ``(m, k, dim)``, and a ray group's rays are ``S[:, 0]``."""
    best = 0.0
    for ga in cone_a:
        for gb in cone_b:
            Sa, Sb = (g.basis if g.per_row else g.basis[None] for g in (ga, gb))
            if ga.one_sided and gb.one_sided:
                best = max(best, float(np.max(-(Sa[:, 0] @ Sb[:, 0].T))))
            elif ga.one_sided or gb.one_sided:
                rays, S = (Sa[:, 0], Sb) if ga.one_sided else (Sb[:, 0], Sa)
                step = max(1, BLOCK_PAIRS // rays.shape[0])
                for i in range(0, S.shape[0], step):
                    coords = rays @ S[i : i + step].swapaxes(-1, -2)
                    best = max(best, float(np.max(np.linalg.norm(coords, axis=-1))))
            else:
                best = max(best, _largest_cosine(Sa, Sb))
    return best


def _largest_cosine(Sa, Sb):
    """Largest principal cosine over all pairs of subspaces from two stacks."""
    step = max(1, BLOCK_PAIRS // Sb.shape[0])
    best = 0.0
    for i in range(0, Sa.shape[0], step):
        best = max(best, float(np.max(principal_cosines(Sa[i : i + step, None], Sb[None])[..., 0])))
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
    best = _opposition(a.normal_components(Xa), b.normal_components(Xb))
    return float(np.clip(best, 0.0, 1.0))


def check_strong_regularity(a, b, point):
    """Whether the limiting normal cones at ``point`` oppose only trivially,
    i.e. no unit normal of one set is (nearly) the negative of a unit normal
    of the other.

    Exact for affine pairs via the rank of the stacked direction bases; for
    the other variants the analytic limiting cones are compared component by
    component with alignment threshold ``1 - STRONG_REGULARITY_TOL``.
    Raises, as ``limiting_normals`` does, if ``point`` is off either set.
    """
    point = np.asarray(point, dtype=float)[None]
    cone_a, cone_b = a.limiting_normals(point), b.limiting_normals(point)
    if isinstance(a, AffineSubspace) and isinstance(b, AffineSubspace):
        # normal spaces meet trivially iff the direction spans fill the space
        stacked = np.vstack([a.basis, b.basis])
        rank = orthonormalize(stacked).shape[0] if stacked.size else 0
        return bool(rank == a.dim)
    # a zero cone has no groups, and its opposition with any cone is 0
    return bool(_opposition(cone_a, cone_b) <= 1.0 - STRONG_REGULARITY_TOL)


def friedrichs_cosine(a, b):
    """Cosine of the Friedrichs angle: the angle between the direction spaces
    of two affine subspaces modulo their intersection.  Their principal
    cosines begin with ``dim(A n B)`` ones, one per shared direction; the
    next one is the cosine, and it is zero when none follows."""
    if a.dim != b.dim:
        raise ValueError("subspaces have mixed ambient dimensions")
    shared = subspace_intersection(a.basis, b.basis).shape[0]
    cosines = principal_cosines(a.basis, b.basis)
    return float(cosines[shared]) if shared < cosines.size else 0.0


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
        return asdict(self)


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
    kappa = max(float(kappa) * inflation, 1.0)  # >= 1 by definition; sampling may undershoot
    c = min(float(c) * inflation, 1.0)
    gamma = 1.0 / kappa

    contraction = 1.0 - gamma**2
    if a_convex and b_convex:
        regime = "both_convex"
        etm = 0.0  # a convex set's projector is firmly nonexpansive
        rate_map = contraction
        map_cond = True
    elif a_convex or b_convex:
        regime = "one_convex"
        etm = eps_tilde_projector(eps_b if a_convex else eps_a)
        rate_map = math.sqrt(max(contraction + etm, 0.0)) * math.sqrt(contraction)
        map_cond = contraction < 1e-15 or etm <= (2.0 * gamma - gamma**2) / contraction
    else:
        regime = "both_nonconvex"
        etm = eps_tilde_projector(max(eps_a, eps_b))
        rate_map = contraction + etm
        map_cond = etm <= gamma**2
    map_ok = map_cond and rate_map < 1.0

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
