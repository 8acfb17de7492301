"""Dense vector primitives, orthonormalization and affine-subspace frames.

Everything downstream (set geometry, operators, estimators) works with plain
1-D numpy arrays as points.  Direction subspaces are stored as row-stacked
orthonormal bases, so ``basis.shape == (dim_subspace, dim_ambient)`` and an
empty basis has shape ``(0, dim_ambient)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Default tolerances.  All of them can be overridden per call; exact
# arithmetic statements need explicit floating-point slack.
ORTHONORMALITY_TOL = 1e-12
RANK_CUTOFF = 1e-10
SPAN_TOL = 1e-10


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


def inner(a, b):
    """Euclidean inner product of two points of equal dimension."""
    a = as_point(a)
    b = as_point(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.dot(a, b))


def norm(a):
    """Euclidean 2-norm of a point."""
    return float(np.linalg.norm(as_point(a)))


def orthonormalize(vectors, rank_cutoff=None):
    """Orthonormal basis of the span of ``vectors``.

    Modified Gram-Schmidt with a second re-orthogonalization pass.  Vectors
    whose residual after projection onto the accepted ones falls below
    ``rank_cutoff`` times the largest input norm are discarded, which gives
    numerically stable rank detection without an SVD.

    Parameters
    ----------
    vectors : sequence of array-like, or 2-D array with vectors as rows
    rank_cutoff : float, optional
        Defaults to the module-level ``RANK_CUTOFF``.

    Returns
    -------
    ndarray of shape (rank, dim); ``(0, dim)`` for a zero span.  Input that is
    already orthonormal (within ``ORTHONORMALITY_TOL``) is returned unchanged,
    so the function is exactly idempotent on its own output.
    """
    if rank_cutoff is None:
        rank_cutoff = RANK_CUTOFF
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
        if r >= rank_cutoff * scale:
            basis.append(w / r)
    if not basis:
        return np.zeros((0, dim))
    return np.vstack(basis)


def _is_orthonormal(V, tol=None):
    if tol is None:
        tol = ORTHONORMALITY_TOL
    if V.shape[0] == 0:
        return True
    gram = V @ V.T
    return bool(np.max(np.abs(gram - np.eye(V.shape[0]))) <= tol)


@dataclass(frozen=True)
class AffineFrame:
    """An affine subspace ``offset + span(basis rows)``.

    The basis rows are pairwise orthonormal; ``basis`` may have zero rows, in
    which case the frame is the single point ``offset``.
    """

    offset: np.ndarray
    basis: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        offset = as_point(self.offset)
        basis = np.asarray(self.basis, dtype=float)
        if basis.size == 0:
            basis = np.zeros((0, offset.shape[0]))
        if basis.ndim != 2 or basis.shape[1] != offset.shape[0]:
            raise ValueError("basis rows must match the offset dimension")
        if basis.shape[0] > basis.shape[1]:
            raise ValueError("more basis vectors than ambient dimensions")
        if not _is_orthonormal(basis):
            raise ValueError("frame basis is not orthonormal; build via AffineFrame.from_span")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_span(cls, offset, vectors):
        """Frame through ``offset`` spanning the given (not necessarily
        orthonormal, possibly dependent) direction vectors."""
        offset = as_point(offset)
        if len(vectors) == 0:
            return cls(offset, np.zeros((0, offset.shape[0])))
        return cls(offset, orthonormalize(vectors))

    @classmethod
    def full_space(cls, dim):
        return cls(np.zeros(dim), np.eye(dim))

    @classmethod
    def single_point(cls, offset):
        offset = as_point(offset)
        return cls(offset, np.zeros((0, offset.shape[0])))

    @property
    def dim_ambient(self):
        return self.offset.shape[0]

    @property
    def dim_subspace(self):
        return self.basis.shape[0]

    def project(self, x):
        """Orthogonal projection of ``x`` onto the frame (unique)."""
        return self.project_rows(as_point(x, self.dim_ambient)[None])[0]

    def project_rows(self, X):
        """Orthogonal projection of every row of an ``(m, dim)`` array;
        unvalidated.

        A stacked ``matmul`` makes one matrix-vector product per row, so a
        row's result does not depend on the batch it is in.  ``project_many``
        multiplies whole matrices instead, which rounds differently.
        """
        if self.dim_subspace == 0:
            return np.full(X.shape, self.offset)
        R = (X - self.offset)[:, :, None]
        return self.offset + np.matmul(self.basis.T, np.matmul(self.basis, R))[:, :, 0]

    def project_many(self, X):
        X = np.asarray(X, dtype=float)
        if self.dim_subspace == 0:
            return np.broadcast_to(self.offset, X.shape).copy()
        R = X - self.offset
        return self.offset + (R @ self.basis.T) @ self.basis

    def contains(self, x, tol=1e-9):
        return float(np.linalg.norm(x - self.project(x))) <= tol

    def __eq__(self, other):
        if not isinstance(other, AffineFrame):
            return NotImplemented
        return np.array_equal(self.offset, other.offset) and np.array_equal(self.basis, other.basis)

    def __hash__(self):
        return hash((self.offset.tobytes(), self.basis.tobytes()))


def orthogonal_complement(frame):
    """Frame through the same offset spanning the orthogonal complement.

    ``dim_subspace`` of the result is ``dim_ambient - dim_subspace`` of the
    input.  The complement basis is obtained deterministically by completing
    the frame basis with identity directions.
    """
    comp = complement_basis(frame.basis, frame.dim_ambient)
    return AffineFrame(frame.offset, comp)


def complement_basis(basis, dim):
    """Orthonormal basis (rows) of the orthogonal complement of ``span(basis)``."""
    basis = np.asarray(basis, dtype=float).reshape(-1, dim)
    k = basis.shape[0]
    if k == 0:
        return np.eye(dim)
    candidates = np.vstack([basis, np.eye(dim)])
    full = orthonormalize(candidates)
    return full[k:]


def subspace_intersection(basis_a, basis_b, tol=None):
    """Orthonormal basis (rows) of the intersection of two linear subspaces.

    Solves for coefficient pairs with ``basis_a.T ca == basis_b.T cb`` via the
    null space of the stacked column matrix.
    """
    if tol is None:
        tol = SPAN_TOL
    basis_a = np.atleast_2d(np.asarray(basis_a, dtype=float))
    basis_b = np.atleast_2d(np.asarray(basis_b, dtype=float))
    if basis_a.shape[0] == 0 or basis_b.shape[0] == 0:
        dim = max(basis_a.shape[1] if basis_a.size else 0, basis_b.shape[1] if basis_b.size else 0)
        return np.zeros((0, dim))
    M = np.hstack([basis_a.T, -basis_b.T])
    _, s, vt = np.linalg.svd(M)
    null_mask = np.zeros(vt.shape[0], dtype=bool)
    null_mask[len(s):] = True
    null_mask[: len(s)] |= s <= tol * (s[0] if len(s) else 1.0)
    null = vt[null_mask]
    if null.shape[0] == 0:
        return np.zeros((0, basis_a.shape[1]))
    p = basis_a.shape[0]
    vecs = null[:, :p] @ basis_a
    return orthonormalize(vecs)


def principal_cosines(basis_a, basis_b):
    """Cosines of the principal angles between two row-basis subspaces,
    sorted descending and clipped to ``[0, 1]``."""
    basis_a = np.atleast_2d(np.asarray(basis_a, dtype=float))
    basis_b = np.atleast_2d(np.asarray(basis_b, dtype=float))
    if basis_a.shape[0] == 0 or basis_b.shape[0] == 0:
        return np.zeros(0)
    sigma = np.linalg.svd(basis_a @ basis_b.T, compute_uv=False)
    return np.clip(sigma, 0.0, 1.0)


def largest_principal_cosine(basis_a, basis_b):
    cos = principal_cosines(basis_a, basis_b)
    return float(cos[0]) if cos.size else 0.0
