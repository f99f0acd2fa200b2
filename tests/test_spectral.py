"""Spectral-core tests: decomposition, matrix functions, nullspaces, norms."""

import re

import numpy as np
import pytest

from formrep import (
    MatrixValidationError,
    ResolventPointError,
    SpectralDomainError,
    SubspaceBasis,
    apply_fn,
    eig_sym,
    kernel_tol,
    matrix_function,
    min_abs_eig,
    nullspace,
    op_norm,
    orthonormal_columns,
    principal_angle,
    resolvent_identity_residual,
    subspace_intersection,
    symmetrize,
)


def random_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) * scale
    return (raw + raw.T) / 2.0


def power_iteration_norm(mat, iters=3000, seed=5):
    """Independent spectral-norm oracle: power iteration on M @ M."""
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(mat.shape[0])
    vec /= np.linalg.norm(vec)
    square = mat @ mat
    est = 0.0
    for _ in range(iters):
        nxt = square @ vec
        est = float(vec @ nxt)
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return 0.0
        vec = nxt / norm
    return float(np.sqrt(est))


class TestEigSym:
    def test_two_by_two_diagonal(self):
        decomp = eig_sym(np.diag([2.0, 0.5]))
        np.testing.assert_allclose(decomp.eigenvalues, [0.5, 2.0])

    def test_identity_any_dimension(self):
        for n in (1, 4, 9):
            decomp = eig_sym(np.eye(n))
            np.testing.assert_allclose(decomp.eigenvalues, np.ones(n))
            gram = decomp.eigenvectors.T @ decomp.eigenvectors
            assert np.linalg.norm(gram - np.eye(n), 2) <= 1e-12 * n

    def test_reconstruction_oracle_random(self):
        # Oracle: direct multiplication V diag(w) V^T reproduces the source.
        mat = random_symmetric(20, seed=3)
        decomp = eig_sym(mat)
        defect = np.linalg.norm(decomp.reconstruct() - mat, 2)
        assert defect <= 1e-12 * 20 * decomp.source_norm

    def test_orthonormality(self):
        mat = random_symmetric(15, seed=11)
        decomp = eig_sym(mat)
        gram = decomp.eigenvectors.T @ decomp.eigenvectors
        assert np.linalg.norm(gram - np.eye(15), 2) <= 1e-12 * 15

    def test_sign_convention_deterministic(self):
        mat = random_symmetric(8, seed=2)
        first = eig_sym(mat).eigenvectors
        second = eig_sym(mat.copy()).eigenvectors
        np.testing.assert_array_equal(first, second)
        for j in range(8):
            col = first[:, j]
            lead = col[np.abs(col) > 1e-8][0]
            assert lead > 0

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(MatrixValidationError):
            eig_sym(bad)

    def test_rejects_asymmetric(self):
        with pytest.raises(MatrixValidationError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_complex_hermitian(self):
        mat = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
        decomp = eig_sym(mat)
        np.testing.assert_allclose(decomp.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_complex_spectral_mapping_and_kernel(self):
        mat = np.array([[1.0, 1.0j], [-1.0j, 1.0]])  # eigenvalues 0 and 2
        basis = nullspace(mat)
        assert basis.dim == 1
        assert np.linalg.norm(mat @ basis.vectors[:, 0]) <= 1e-14
        root = matrix_function(mat, np.sqrt)
        np.testing.assert_allclose(root @ root, mat, atol=1e-13)

    def test_one_by_one_accepted_everywhere(self):
        mat = np.array([[-2.5]])
        assert eig_sym(mat).eigenvalues[0] == -2.5
        assert op_norm(mat) == 2.5
        assert min_abs_eig(mat) == 2.5
        assert nullspace(mat).dim == 0
        np.testing.assert_allclose(matrix_function(mat, abs), [[2.5]])


class TestApplyFn:
    def test_sqrt_diagonal(self):
        out = matrix_function(np.diag([4.0, 9.0]), np.sqrt)
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_abs_diagonal(self):
        out = matrix_function(np.diag([3.0, -2.0]), abs)
        np.testing.assert_allclose(out, np.diag([3.0, 2.0]), atol=1e-14)

    def test_inverse_shifted_root(self):
        # Oracle: scalar arithmetic per eigenvalue of diag(2, 1/2).
        out = matrix_function(np.diag([2.0, 0.5]), lambda lam: 1.0 / np.sqrt(lam + 1.0))
        np.testing.assert_allclose(
            out, np.diag([3.0**-0.5, 1.5**-0.5]), atol=1e-14
        )

    def test_identity_function_reproduces_source(self):
        mat = random_symmetric(12, seed=7)
        out = matrix_function(mat, lambda lam: lam)
        assert np.linalg.norm(out - mat, 2) <= 1e-12 * 12 * op_norm(mat)

    def test_composition_matches_pointwise(self):
        mat = random_symmetric(10, seed=9)
        decomp = eig_sym(mat)
        composed = apply_fn(decomp, lambda lam: np.exp(np.tanh(lam)))
        two_step = matrix_function(apply_fn(decomp, np.tanh), np.exp)
        assert np.linalg.norm(composed - two_step, 2) <= 1e-11 * op_norm(composed)

    def test_sqrt_squares_back_for_psd(self):
        rng = np.random.default_rng(1)
        half = rng.standard_normal((14, 14))
        mat = half @ half.T
        root = matrix_function(mat, np.sqrt)
        assert np.linalg.norm(root @ root - mat, 2) <= 1e-11 * 14 * op_norm(mat)

    def test_domain_error_names_eigenvalue(self):
        import math

        with pytest.raises(SpectralDomainError, match="-2"):
            matrix_function(np.diag([3.0, -2.0]), math.sqrt)

    def test_non_finite_result_rejected(self):
        with pytest.raises(SpectralDomainError):
            matrix_function(np.diag([1.0, 0.0]), lambda lam: 1.0 / lam)


class TestNullspace:
    def test_zero_matrix_full_kernel(self):
        basis = nullspace(np.zeros((3, 3)))
        assert basis.dim == 3

    def test_diagonal_single_kernel(self):
        basis = nullspace(np.diag([0.0, 1.0, 2.0]))
        assert basis.dim == 1
        np.testing.assert_allclose(np.abs(basis.vectors[:, 0]), [1.0, 0.0, 0.0], atol=1e-14)

    def test_rank_one_ones_matrix(self):
        # Oracle: spectrum of [[1,1],[1,1]] is {0, 2}; kernel is (1,-1)/sqrt(2).
        mat = np.ones((2, 2))
        vals = np.linalg.eigvalsh(mat)
        np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-15)
        basis = nullspace(mat)
        assert basis.dim == 1
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        overlap = abs(float(expected @ basis.vectors[:, 0]))
        assert abs(overlap - 1.0) <= 1e-12

    def test_residual_bound_and_dimension(self):
        rng = np.random.default_rng(4)
        frame = np.linalg.qr(rng.standard_normal((9, 9)))[0]
        vals = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
        mat = (frame * vals) @ frame.T
        tau = kernel_tol(9, 5.0)
        basis = nullspace(mat)
        assert basis.dim == int(np.count_nonzero(np.abs(np.linalg.eigvalsh(mat)) <= tau))
        assert basis.dim == 3
        for j in range(basis.dim):
            assert np.linalg.norm(mat @ basis.vectors[:, j]) <= tau

    def test_tolerance_override(self):
        mat = np.diag([1e-6, 1.0])
        assert nullspace(mat).dim == 0
        assert nullspace(mat, tol_policy=1e-5).dim == 1


class TestNorms:
    def test_diagonal_values(self):
        mat = np.diag([2.0, 0.5])
        assert op_norm(mat) == pytest.approx(2.0)
        assert min_abs_eig(mat) == pytest.approx(0.5)

    def test_swap_matrix_norm_one(self):
        assert op_norm(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_matches_power_iteration_oracle(self):
        mat = random_symmetric(16, seed=21)
        assert op_norm(mat) == pytest.approx(power_iteration_norm(mat), rel=1e-10)


class TestResolventIdentity:
    def test_equal_matrices_zero(self):
        mat = random_symmetric(6, seed=13)
        lam = op_norm(mat) + 2.0
        assert resolvent_identity_residual(mat, mat, lam) <= 1e-14

    def test_small_diagonal_pair(self):
        # Oracle: direct 2x2 arithmetic; at lambda=0 both sides are diag(0, -1/6).
        first = np.diag([1.0, 2.0])
        second = np.diag([1.0, 3.0])
        lhs = np.linalg.inv(-first) - np.linalg.inv(-second)
        rhs = np.linalg.inv(-first) @ (first - second) @ np.linalg.inv(-second)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)
        assert resolvent_identity_residual(first, second, 0.0) <= 1e-14

    def test_random_pair_far_point(self):
        first = random_symmetric(10, seed=17)
        second = random_symmetric(10, seed=18)
        lam = op_norm(first) + op_norm(second) + 1.0
        scale = 1.0 + op_norm(first) + op_norm(second)
        assert resolvent_identity_residual(first, second, lam) <= 1e-12 * scale

    def test_rejects_point_near_spectrum(self):
        mat = np.diag([1.0, 2.0])
        with pytest.raises(ResolventPointError, match="2"):
            resolvent_identity_residual(mat, np.diag([5.0, 6.0]), 2.0 + 1e-15)


class TestSubspaceUtilities:
    def test_orthonormal_columns_drops_dependent(self):
        vecs = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        basis = orthonormal_columns(vecs)
        assert basis.dim == 1

    def test_intersection_of_planes(self):
        e = np.eye(4)
        span_xy = SubspaceBasis(e[:, :2])
        span_yz = SubspaceBasis(e[:, 1:3])
        meet = subspace_intersection(span_xy, span_yz)
        assert meet.dim == 1
        assert abs(abs(meet.vectors[1, 0]) - 1.0) <= 1e-10

    def test_intersection_with_trivial(self):
        e = np.eye(3)
        full = SubspaceBasis(e)
        assert subspace_intersection(full, SubspaceBasis.trivial(3)).dim == 0

    def test_principal_angle_identical(self):
        rng = np.random.default_rng(23)
        base = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        mix = base @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert principal_angle(SubspaceBasis(base), SubspaceBasis(mix)) <= 1e-13

    def test_principal_angle_orthogonal(self):
        e = np.eye(4)
        first = SubspaceBasis(e[:, :2])
        second = SubspaceBasis(e[:, 2:])
        assert principal_angle(first, second) == pytest.approx(np.pi / 2)

    def test_principal_angle_known_rotation(self):
        theta = 0.3
        e = np.eye(3)
        rotated = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]])
        assert principal_angle(
            SubspaceBasis(e[:, :1]), SubspaceBasis(rotated)
        ) == pytest.approx(theta, abs=1e-12)

    def test_gram_defect_bound_defers_to_the_spectral_norm(self):
        # Gram matrix (1 + delta) I on 16 columns: 2-norm delta, Frobenius 4 delta.
        bound = 1e-12 * 64
        frame = np.linalg.qr(np.random.default_rng(5).standard_normal((64, 16)))[0]
        accepted = SubspaceBasis(frame * np.sqrt(1.0 + 0.5 * bound))
        assert accepted.dim == 16
        message = f"basis columns are not orthonormal: defect {2 * bound:.3e}"
        with pytest.raises(MatrixValidationError, match=re.escape(message)):
            SubspaceBasis(frame * np.sqrt(1.0 + 2 * bound))


class TestSymmetrize:
    def test_accepts_near_symmetric(self):
        mat = np.array([[1.0, 1.0 + 1e-16], [1.0, 2.0]])
        out = symmetrize(mat)
        np.testing.assert_allclose(out, out.T)

    def test_entry_bound_defers_to_the_spectral_norm(self):
        # All ones: max entry 1, 2-norm 64.  Only the 2-norm admits 1000 eps.
        eps = np.finfo(np.float64).eps
        accepted = np.ones((64, 64))
        accepted[0, 1] += 1000 * eps
        np.testing.assert_array_equal(symmetrize(accepted), symmetrize(accepted).T)
        rejected = np.ones((64, 64))
        rejected[0, 1] += 10000 * eps
        bound = 100 * eps * np.linalg.norm(rejected, 2)
        message = f"matrix is not self-adjoint: asymmetry {10000 * eps:.3e} exceeds {bound:.3e}"
        with pytest.raises(MatrixValidationError, match=re.escape(message)):
            symmetrize(rejected)

    def test_rejects_one_by_zero(self):
        with pytest.raises(MatrixValidationError):
            symmetrize(np.zeros((2, 3)))
