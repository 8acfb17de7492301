import numpy as np
import pytest

from projfeas.linalg import (
    AffineFrame,
    complement_basis,
    largest_principal_cosine,
    orthonormalize,
    row_norms,
    subspace_intersection,
)


def test_orthonormalize_collinear_and_empty():
    out = orthonormalize([[1.0, 0.0], [2.0, 0.0]])
    assert out.shape == (1, 2)
    np.testing.assert_allclose(out[0], [1.0, 0.0])
    assert orthonormalize([]).shape[0] == 0
    assert orthonormalize([[0.0, 0.0], [0.0, 0.0]]).shape == (0, 2)


def test_orthonormalize_gram_matrix_is_identity():
    out = orthonormalize([[1.0, 1.0], [1.0, 0.0]])
    assert out.shape == (2, 2)
    gram = out @ out.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


def test_orthonormalize_idempotent_on_own_output():
    rng = np.random.default_rng(3)
    V = orthonormalize(rng.normal(size=(3, 5)))
    again = orthonormalize(V)
    np.testing.assert_array_equal(V, again)


def test_orthonormalize_mismatched_dims():
    with pytest.raises(ValueError):
        orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])


def test_orthonormalize_rank_detection_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = rng.integers(2, 7)
        r = rng.integers(1, d + 1)
        base = rng.normal(size=(r, d))
        # append dependent combinations; rank must stay r
        extra = rng.normal(size=(2, r)) @ base
        out = orthonormalize(np.vstack([base, extra]))
        assert out.shape[0] == r


def test_cauchy_schwarz_sampled():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        na, nb = row_norms(np.vstack([a, b]))
        assert abs(float(np.dot(a, b))) <= na * nb + 1e-12


def _complement(frame):
    """The frame through the same offset spanning the orthogonal complement."""
    return AffineFrame(frame.offset, complement_basis(frame.basis, frame.dim_ambient))


def test_orthogonal_complement_axis():
    frame = AffineFrame.from_span([2.0, 3.0], [[1.0, 0.0]])
    comp = _complement(frame)
    np.testing.assert_array_equal(comp.offset, frame.offset)
    assert comp.dim_subspace == 1
    np.testing.assert_allclose(np.abs(comp.basis[0]), [0.0, 1.0], atol=1e-12)


def test_orthogonal_complement_full_space_is_point():
    frame = AffineFrame(np.zeros(3), np.eye(3))
    comp = _complement(frame)
    assert comp.dim_subspace == 0


def test_orthogonal_complement_orthogonality_check():
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    frame = AffineFrame.from_span([0.0, 0.0, 0.0], [v])
    comp = _complement(frame)
    assert comp.dim_subspace == 2
    for row in comp.basis:
        assert abs(float(np.dot(row, v))) <= 1e-12


def test_complement_involution_recovers_span():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.integers(2, 6)
        k = rng.integers(0, d + 1)
        frame = AffineFrame.from_span(rng.normal(size=d), rng.normal(size=(k, d)))
        back = _complement(_complement(frame))
        assert back.dim_subspace == frame.dim_subspace
        # same span: mutual projection residuals vanish
        for row in back.basis:
            res = row - frame.basis.T @ (frame.basis @ row)
            assert np.linalg.norm(res) <= 1e-10
        for row in frame.basis:
            res = row - back.basis.T @ (back.basis @ row)
            assert np.linalg.norm(res) <= 1e-10


def test_subspace_intersection_planes():
    # two planes in R^3 meeting in a line
    a = orthonormalize([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = orthonormalize([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    meet = subspace_intersection(a, b)
    assert meet.shape[0] == 1
    np.testing.assert_allclose(np.abs(meet[0]), [1.0, 0.0, 0.0], atol=1e-10)


def test_subspace_intersection_trivial():
    a = orthonormalize([[1.0, 0.0]])
    b = orthonormalize([[0.0, 1.0]])
    assert subspace_intersection(a, b).shape[0] == 0


def test_largest_principal_cosine_known_angle():
    a = orthonormalize([[1.0, 0.0]])
    b = orthonormalize([[1.0, 1.0]])
    assert largest_principal_cosine(a, b) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)


def test_affine_frame_invariants():
    with pytest.raises(ValueError):
        AffineFrame(np.array([0.0, 0.0]), np.array([[1.0, 1.0]]))  # not unit
    with pytest.raises(ValueError):
        AffineFrame(np.array([np.nan, 0.0]))
    frame = AffineFrame.from_span([0.0, 0.0], [[1.0, 1.0]])
    gram = frame.basis @ frame.basis.T
    np.testing.assert_allclose(gram, np.eye(1), atol=1e-12)


def test_complement_basis_dimensions():
    basis = orthonormalize([[1.0, 0.0, 0.0]])
    comp = complement_basis(basis, 3)
    assert comp.shape == (2, 3)
    np.testing.assert_allclose(comp @ basis.T, 0.0, atol=1e-12)
