"""Involution validation, commutation, block splitting, enumeration."""

import numpy as np
import pytest

from formrep import (
    EnumerationBoundError,
    InvolutionError,
    MatrixValidationError,
    TrivialInvolutionError,
    block_decompose,
    canonical_involution,
    commutes,
    enumerate_diagonal_involutions,
    make_involution,
    op_norm,
)


def random_involution(n, seed):
    rng = np.random.default_rng(seed)
    frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
    signs = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)])
    return make_involution((frame * signs) @ frame.T)


class TestMakeInvolution:
    def test_diagonal_projector(self):
        inv = make_involution(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(inv.projector_plus, np.diag([1.0, 0.0]), atol=1e-15)

    def test_swap_projector(self):
        # Oracle: the +1 eigenvector of the swap is (1,1)/sqrt(2), so
        # P = v v^T = [[.5,.5],[.5,.5]].
        inv = make_involution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(inv.projector_plus, np.full((2, 2), 0.5), atol=1e-14)

    def test_trivial_rejected(self):
        with pytest.raises(TrivialInvolutionError):
            make_involution(np.diag([1.0, 1.0]))
        with pytest.raises(TrivialInvolutionError):
            make_involution(-np.eye(3))

    def test_non_involution_rejected(self):
        with pytest.raises(InvolutionError, match="not an involution"):
            make_involution(np.diag([2.0, -1.0]))

    def test_spectrum_and_dimensions(self):
        inv = random_involution(9, seed=3)
        vals = np.linalg.eigvalsh(inv.matrix)
        np.testing.assert_allclose(np.abs(vals), np.ones(9), atol=1e-12)
        assert inv.dim_plus + inv.dim_minus == 9
        eye = np.eye(9)
        assert np.linalg.norm(inv.projector_plus @ inv.projector_plus - inv.projector_plus, 2) <= 1e-12
        assert np.linalg.norm(inv.projector_plus + inv.projector_minus - eye, 2) <= 1e-14

    def test_bases_span_projector_ranges(self):
        inv = random_involution(7, seed=5)
        plus = inv.plus_basis.vectors
        assert np.linalg.norm(plus @ plus.T - inv.projector_plus, 2) <= 1e-12


class TestCommutes:
    def test_commuting_diagonals(self):
        inv = make_involution(np.diag([1.0, -1.0]))
        ok, residual = commutes(inv, np.diag([2.0, 0.5]))
        assert ok and residual == 0.0

    def test_swap_does_not_commute(self):
        # Oracle: [J, A] = [[0,-3/2],[3/2,0]] by direct multiplication.
        inv = make_involution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        mat = np.diag([2.0, 0.5])
        raw = inv.matrix @ mat - mat @ inv.matrix
        assert np.linalg.norm(raw, 2) == pytest.approx(1.5)
        ok, residual = commutes(inv, mat)
        assert not ok
        assert residual == pytest.approx(1.5)

    @pytest.mark.parametrize("n", [5, 64, 384])
    def test_residual_is_the_svd_norm(self, n):
        # The residual comes from the Gram matrix of [J, A]; the SVD 2-norm is the oracle.
        inv = random_involution(n, seed=n)
        gauss = np.random.default_rng(n + 1).standard_normal((n, n))
        mat = gauss @ gauss.T
        ok, residual = commutes(inv, mat)
        oracle = np.linalg.norm(inv.matrix @ mat - mat @ inv.matrix, 2)
        assert not ok
        assert residual == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_identity_commutes_with_everything(self):
        inv = random_involution(6, seed=8)
        ok, residual = commutes(inv, np.eye(6))
        assert ok and residual <= 1e-14

    def test_dimension_mismatch(self):
        inv = make_involution(np.diag([1.0, -1.0]))
        with pytest.raises(MatrixValidationError):
            commutes(inv, np.eye(3))


class TestBlockDecompose:
    def test_swap_coefficient_vanishing_diagonal(self):
        inv = make_involution(np.diag([1.0, -1.0]))
        blocks = block_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]), inv)
        np.testing.assert_allclose(blocks.plus_block, [[0.0]], atol=1e-15)
        np.testing.assert_allclose(blocks.minus_block, [[0.0]], atol=1e-15)
        np.testing.assert_allclose(np.abs(blocks.coupling), [[1.0]], atol=1e-15)

    def test_diagonal_pair_no_coupling(self):
        inv = make_involution(np.diag([1.0, 1.0, -1.0]))
        blocks = block_decompose(np.diag([3.0, 4.0, 5.0]), inv)
        assert np.linalg.norm(blocks.coupling, 2) <= 1e-14

    def test_reassembly_oracle_random(self):
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((8, 8))
        mat = (raw + raw.T) / 2.0
        inv = random_involution(8, seed=13)
        blocks = block_decompose(mat, inv)
        frame = inv.half_space_frame()
        rebuilt = frame @ blocks.assemble() @ frame.T
        assert np.linalg.norm(rebuilt - mat, 2) <= 1e-12 * 8 * op_norm(mat)

    def test_commuting_implies_zero_coupling(self):
        rng = np.random.default_rng(14)
        frame = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        signs = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        inv = make_involution((frame * signs) @ frame.T)
        mat = (frame * rng.uniform(1.0, 2.0, 6)) @ frame.T
        ok, _ = commutes(inv, mat)
        assert ok
        blocks = block_decompose(mat, inv)
        assert np.linalg.norm(blocks.coupling, 2) <= 1e-10 * op_norm(mat)

    def test_canonical_involution_blocks_are_submatrices(self):
        inv = canonical_involution(2, 3)
        rng = np.random.default_rng(15)
        raw = rng.standard_normal((5, 5))
        mat = (raw + raw.T) / 2.0
        blocks = block_decompose(mat, inv)
        np.testing.assert_allclose(blocks.plus_block, mat[:2, :2], atol=1e-14)
        np.testing.assert_allclose(blocks.minus_block, mat[2:, 2:], atol=1e-14)
        np.testing.assert_allclose(blocks.coupling, mat[:2, 2:], atol=1e-14)


class TestEnumeration:
    def test_two_dimensional_exact_set(self):
        patterns = {
            tuple(np.sign(np.diag(inv.matrix)).astype(int))
            for inv in enumerate_diagonal_involutions(2)
        }
        assert patterns == {(1, -1), (-1, 1)}

    def test_three_dimensional_count(self):
        assert sum(1 for _ in enumerate_diagonal_involutions(3)) == 6

    def test_four_dimensional_count_distinct_involutive(self):
        seen = set()
        for inv in enumerate_diagonal_involutions(4):
            assert np.linalg.norm(inv.matrix @ inv.matrix - np.eye(4), 2) <= 1e-14
            seen.add(tuple(np.diag(inv.matrix).astype(int)))
        assert len(seen) == 14

    def test_one_dimensional_is_empty(self):
        # Both sign patterns are +-I and excluded: 2^1 - 2 = 0.
        assert list(enumerate_diagonal_involutions(1)) == []

    def test_bound_guard(self):
        with pytest.raises(EnumerationBoundError, match="24"):
            next(enumerate_diagonal_involutions(25))
