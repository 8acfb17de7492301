"""Dense vector primitives, orthonormalization and subspace angles.

Everything downstream (set geometry, operators, estimators) works with plain
1-D numpy arrays as points.  Direction subspaces are stored as row-stacked
orthonormal bases, so ``basis.shape == (k, dim)`` and an empty basis has
shape ``(0, dim)``.  An affine subspace built on such a basis, its
validation and its projector live in one type, ``sets.AffineSubspace``.
"""

from __future__ import annotations

import numpy as np

# Floating-point slack for statements that hold exactly in real arithmetic.
ORTHONORMALITY_TOL = 1e-12  # largest entry of |V V^T - I| of an orthonormal basis
RANK_CUTOFF = 1e-10         # relative residual below which a vector adds no rank
SPAN_TOL = 1e-10            # relative singular value below which a direction is shared


def as_point(x, dim=None):
    """Coerce ``x`` to a finite 1-D float array, optionally checking its dim."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite entries")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {p.shape[0]}")
    return p


def as_points(X, dim):
    """Coerce ``X`` to a finite ``(m, dim)`` float array of points."""
    P = np.asarray(X, dtype=float)
    if P.ndim != 2 or P.shape[1] != dim:
        raise ValueError(f"expected an (m, {dim}) array of points, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError("points have non-finite entries")
    return P


def row_norms(D):
    """Euclidean norm of every row, bit for bit as ``np.linalg.norm`` of one
    row: a dot product per row (``np.linalg.norm(D, axis=-1)`` rounds
    differently)."""
    return np.sqrt(np.vecdot(D, D))


def orthonormalize(vectors):
    """Orthonormal basis of the span of ``vectors``: a sequence of vectors,
    or a 2-D array with vectors as rows.

    Modified Gram-Schmidt with a second re-orthogonalization pass.  Vectors
    whose residual after projection onto the accepted ones falls below
    ``RANK_CUTOFF`` times the largest input norm are discarded, which gives
    numerically stable rank detection without an SVD.

    Returns an array of shape (rank, dim); ``(0, dim)`` for a zero span.
    Input that is already orthonormal (within ``ORTHONORMALITY_TOL``) is
    returned unchanged, so the function is exactly idempotent on its own
    output.
    """
    rows = [as_point(v) for v in vectors]
    if not rows:
        return np.zeros((0, 0))
    dims = {r.shape[0] for r in rows}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch among input vectors: {sorted(dims)}")
    dim = dims.pop()
    V = np.vstack(rows)
    if _is_orthonormal(V):
        return V.copy()
    scale = max(float(np.linalg.norm(v)) for v in rows)
    if scale == 0.0:
        return np.zeros((0, dim))
    basis = []
    for v in rows:
        w = v.copy()
        for _ in range(2):  # second pass removes leaked components
            for q in basis:
                w = w - np.dot(w, q) * q
        r = np.linalg.norm(w)
        if r >= RANK_CUTOFF * scale:
            basis.append(w / r)
    if not basis:
        return np.zeros((0, dim))
    return np.vstack(basis)


def _is_orthonormal(V):
    if V.shape[0] == 0:
        return True
    gram = V @ V.T
    return bool(np.max(np.abs(gram - np.eye(V.shape[0]))) <= ORTHONORMALITY_TOL)


def complement_basis(basis, dim):
    """Orthonormal basis (rows) of the orthogonal complement of ``span(basis)``,
    ``dim - rank`` rows, found deterministically by completing the basis with
    identity directions."""
    basis = np.asarray(basis, dtype=float).reshape(-1, dim)
    k = basis.shape[0]
    if k == 0:
        return np.eye(dim)
    candidates = np.vstack([basis, np.eye(dim)])
    full = orthonormalize(candidates)
    return full[k:]


def subspace_intersection(basis_a, basis_b):
    """Orthonormal basis (rows) of the intersection of two linear subspaces.

    Solves for coefficient pairs with ``basis_a.T ca == basis_b.T cb`` via the
    null space of the stacked column matrix: the right singular vectors past
    its rank and those whose singular value is at most ``SPAN_TOL`` times the
    largest.
    """
    basis_a = np.atleast_2d(np.asarray(basis_a, dtype=float))
    basis_b = np.atleast_2d(np.asarray(basis_b, dtype=float))
    if basis_a.shape[0] == 0 or basis_b.shape[0] == 0:
        dim = max(basis_a.shape[1] if basis_a.size else 0, basis_b.shape[1] if basis_b.size else 0)
        return np.zeros((0, dim))
    M = np.hstack([basis_a.T, -basis_b.T])
    _, s, vt = np.linalg.svd(M)
    null_mask = np.zeros(vt.shape[0], dtype=bool)
    null_mask[len(s):] = True
    null_mask[: len(s)] |= s <= SPAN_TOL * (s[0] if len(s) else 1.0)
    null = vt[null_mask]
    if null.shape[0] == 0:
        return np.zeros((0, basis_a.shape[1]))
    p = basis_a.shape[0]
    vecs = null[:, :p] @ basis_a
    return orthonormalize(vecs)


def principal_cosines(basis_a, basis_b):
    """Cosines of the principal angles between the row spans of two
    orthonormal bases, largest first and clipped to ``[0, 1]``: the singular
    values of ``basis_a @ basis_b.T``, none when either span is trivial.  On
    two stacks of bases, ``(n, k, dim)`` and ``(n, l, dim)``, one row per
    pair, each bit for bit as the pair alone gives it."""
    a = np.asarray(basis_a, dtype=float)
    b = np.asarray(basis_b, dtype=float)
    return np.clip(np.linalg.svd(a @ np.swapaxes(b, -1, -2), compute_uv=False), 0.0, 1.0)


def largest_principal_cosine(basis_a, basis_b):
    """Cosine of the smallest principal angle between two row-basis
    subspaces; zero when either is trivial."""
    cosines = principal_cosines(np.atleast_2d(basis_a), np.atleast_2d(basis_b))
    return float(cosines[0]) if cosines.size else 0.0
