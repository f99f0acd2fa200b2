"""General-case association pipeline: gap certificates, assembly, residuals."""

import numpy as np
import pytest

import formrep.general as general
from formrep import (
    CommutationError,
    HypothesisRefusedError,
    InternalCheckError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    associate_general,
    check_gap_hypothesis,
    counterexample_pair,
    first_rep_residual,
    gap_certificate_check,
    gen_random,
    kernel_tol,
    make_involution,
    min_abs_eig,
    op_norm,
    second_rep_residual,
    shifted_coefficient,
    weight_sqrt,
)
from formrep.involution import COMMUTATION_TOL

DIAG_SPLIT = make_involution(np.diag([1.0, -1.0]))


def hypothesis_instance(n, seed, alpha=0.5):
    spec = gen_random("general", n, seed, alpha)
    return spec.matrices["A"], spec.matrices["H"], make_involution(spec.matrices["J"])


class TestGapCertificate:
    def test_scalar_blocks_capped_alpha(self):
        # Oracle: with J = diag(1,-1) the blocks are the scalars 2 and -3.
        weight = np.diag([1.0, 2.0])
        coeff = np.array([[2.0, 0.5], [0.5, -3.0]])
        cert = check_gap_hypothesis(weight, coeff, DIAG_SPLIT)
        assert cert.satisfied
        assert cert.lambda_min_plus == pytest.approx(2.0)
        assert cert.lambda_max_minus == pytest.approx(-3.0)
        assert cert.alpha_star == pytest.approx(1.0)

    def test_swap_coefficient_fails_both_splittings(self):
        weight, coeff = counterexample_pair(1)
        for signs in ([1.0, -1.0], [-1.0, 1.0]):
            cert = check_gap_hypothesis(weight, coeff, make_involution(np.diag(signs)))
            assert not cert.satisfied
            assert cert.alpha_star is None
            assert "block" in cert.refusal

    def test_coefficient_equal_to_splitting(self):
        rng = np.random.default_rng(0)
        frame = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        signs = np.array([1.0, 1.0, -1.0, -1.0, -1.0, 1.0])
        inv = make_involution((frame * signs) @ frame.T)
        weight = (frame * rng.uniform(0.0, 3.0, 6)) @ frame.T
        cert = check_gap_hypothesis(weight, inv.matrix, inv)
        assert cert.satisfied and cert.alpha_star == pytest.approx(1.0)

    def test_not_psd_error(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            check_gap_hypothesis(np.diag([-1.0, 1.0]), np.diag([1.0, -1.0]), DIAG_SPLIT)

    def test_singular_coefficient_error(self):
        with pytest.raises(SingularMatrixError, match="singular"):
            check_gap_hypothesis(np.eye(2), np.diag([1.0, 0.0]), DIAG_SPLIT)

    def test_commutation_error(self):
        swap = make_involution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(CommutationError):
            check_gap_hypothesis(np.diag([2.0, 0.5]), np.diag([1.0, -1.0]), swap)

    @pytest.mark.parametrize("pairs", [1, 4])
    def test_commutation_bound(self, pairs):
        # A = [[2I, eI], [eI, I]] has ||A|| = 2 and ||[J, A]||_2 = 2e; with four pairs the
        # Frobenius norm exceeds the bound at half of it, and the 2-norm decides.
        inv = make_involution(np.diag([1.0] * pairs + [-1.0] * pairs))
        for factor in (0.5, 2.0):
            coupling = factor * COMMUTATION_TOL
            weight = np.kron([[2.0, coupling], [coupling, 1.0]], np.eye(pairs))
            if factor < 1.0:
                assert check_gap_hypothesis(weight, inv.matrix, inv).satisfied
            else:
                with pytest.raises(CommutationError, match=f"= {2 * coupling:.3e}$"):
                    check_gap_hypothesis(weight, inv.matrix, inv)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factor", [0.0, 0.5, -0.5, 2.0, -2.0])
    def test_margin_within_rounding_of_zero_does_not_certify(self, sign, factor):
        # The plus block diag(m, 1, 2) has the margin m = factor * tau exactly, with
        # tau = kernel_tol(3, 2); coupling it to the first minus direction keeps H
        # invertible at m = 0.  sign = -1 turns it into the minus block.
        tau = kernel_tol(3, 2.0)
        coeff = np.zeros((5, 5))
        coeff[:3, :3] = np.diag([factor * tau, 1.0, 2.0])
        coeff[3:, 3:] = -np.eye(2)
        coeff[0, 3] = coeff[3, 0] = 1.0
        inv = make_involution(sign * np.diag([1.0, 1.0, 1.0, -1.0, -1.0]))
        cert = check_gap_hypothesis(np.eye(5), sign * coeff, inv)
        block = "plus" if sign > 0 else "minus"
        assert cert.satisfied == (factor > 1.0)
        if factor > 1.0:
            assert cert.alpha_star == factor * tau
        elif factor < -1.0:
            assert cert.refusal.startswith(f"{block} block is not uniformly")
        else:
            assert cert.refusal.startswith(f"{block} block margin is within rounding of zero")

    def test_singular_plus_block_is_never_certified(self):
        # The plus block Q diag(0, U(1, 3)) Q* is singular before rounding; its computed
        # least eigenvalue lands on either side of zero, within kernel_tol(20, 3) of it.
        refusals = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            frame = np.linalg.qr(rng.standard_normal((20, 20)))[0]
            plus = (frame * np.concatenate([[0.0], rng.uniform(1.0, 3.0, 19)])) @ frame.T
            coupling = 0.1 * rng.standard_normal((20, 20))
            coeff = np.block([[(plus + plus.T) / 2, coupling], [coupling.T, -np.eye(20)]])
            weight = np.diag(rng.uniform(0.5, 2.0, 40))
            inv = make_involution(np.diag([1.0] * 20 + [-1.0] * 20))
            refusals.append(check_gap_hypothesis(weight, coeff, inv).refusal)
        assert all("plus block margin is within rounding of zero" in r for r in refusals)


class TestShiftedCoefficient:
    def test_zero_weight(self):
        compressed, shifted = shifted_coefficient(
            np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]]), DIAG_SPLIT
        )
        np.testing.assert_allclose(compressed, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(shifted, DIAG_SPLIT.matrix, atol=1e-15)

    def test_identity_weight(self):
        # Oracle: R = 2**-1/2 I, so the shifted coefficient is H/2 + J/2.
        coeff = np.array([[1.0, 0.3], [0.3, -2.0]])
        _, shifted = shifted_coefficient(np.eye(2), coeff, DIAG_SPLIT)
        np.testing.assert_allclose(
            shifted, coeff / 2.0 + DIAG_SPLIT.matrix / 2.0, atol=1e-14
        )

    def test_block_margins_dominate_alpha(self):
        # Oracle: block eigenvalues of the shifted coefficient in the
        # splitting coordinates stay at or above the certified margin.
        for seed in range(8):
            weight, coeff, inv = hypothesis_instance(7, seed, alpha=0.4)
            cert = check_gap_hypothesis(weight, coeff, inv)
            _, shifted = shifted_coefficient(weight, coeff, inv)
            from formrep import block_decompose

            blocks = block_decompose(shifted, inv)
            lam_min_plus = np.linalg.eigvalsh(blocks.plus_block)[0]
            lam_max_minus = np.linalg.eigvalsh(blocks.minus_block)[-1]
            assert lam_min_plus >= cert.alpha_star - 1e-10
            assert lam_max_minus <= -cert.alpha_star + 1e-10


class TestAssociateGeneral:
    def test_counterexample_forced_reproduces_coefficient(self):
        # The swap blocks satisfy A^(1/2) H A^(1/2) = H exactly.
        weight, coeff = counterexample_pair(1)
        result = associate_general(weight, coeff, DIAG_SPLIT, force=True)
        np.testing.assert_allclose(result.operator, coeff, atol=1e-14)
        assert not result.certificate.satisfied

    def test_refusal_without_force(self):
        weight, coeff = counterexample_pair(1)
        with pytest.raises(HypothesisRefusedError):
            associate_general(weight, coeff, DIAG_SPLIT)

    def test_identity_weight_returns_coefficient(self):
        coeff = np.array([[2.0, 0.5], [0.5, -3.0]])
        result = associate_general(np.eye(2), coeff, DIAG_SPLIT)
        np.testing.assert_allclose(result.operator, coeff, atol=1e-14)

    def test_splitting_coefficient_gives_product(self):
        # Oracle: for commuting J, A^(1/2) J A^(1/2) = J A by direct multiplication.
        rng = np.random.default_rng(3)
        frame = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        signs = np.concatenate([np.ones(5), -np.ones(7)])
        inv = make_involution((frame * signs) @ frame.T)
        weight = (frame * rng.uniform(0.0, 4.0, 12)) @ frame.T
        result = associate_general(weight, inv.matrix, inv)
        np.testing.assert_allclose(
            result.operator, inv.matrix @ weight, atol=1e-12 * op_norm(weight)
        )

    def test_route_consistency_invariant(self):
        for seed in range(10):
            weight, coeff, inv = hypothesis_instance(6 + seed % 5, seed)
            result = associate_general(weight, coeff, inv)
            scale = (1.0 + op_norm(weight)) * op_norm(coeff)
            shifted_root = weight_sqrt(weight + np.eye(weight.shape[0]))
            rebuilt = shifted_root @ shifted_coefficient(weight, coeff, inv)[1] @ shifted_root
            defect = np.linalg.norm(rebuilt - inv.matrix - result.operator, 2)
            assert defect <= 1e-10 * scale

    def test_route_check_counts_the_splitting_term(self, monkeypatch):
        # The route also cancels J_W, of norm 1: with H scaled by 1e-8 its rounding is
        # about eps, above 1e-10 scale.  It is accepted, and a route moved by
        # 1e-8 (scale + 1) still raises.
        weight, coeff, inv = hypothesis_instance(24, 0)
        coeff = 1e-8 * coeff
        associate_general(weight, coeff, inv)
        scale = (1.0 + op_norm(weight)) * op_norm(coeff)
        scaled, moved = general._scaled, []

        def perturbed(mat, *factors):
            out = scaled(mat, *factors)
            if not moved:  # the route is the first product associate_general scales
                out[0, 0] += 1e-8 * (scale + 1.0)
                moved.append(out)
            return out

        monkeypatch.setattr(general, "_scaled", perturbed)
        with pytest.raises(InternalCheckError, match="assembly routes disagree"):
            associate_general(weight, coeff, inv)


class TestGapMargin:
    def test_zero_weight_margin_zero(self):
        result = associate_general(np.zeros((2, 2)), DIAG_SPLIT.matrix, DIAG_SPLIT)
        assert result.gap_radius == pytest.approx(1.0)
        assert gap_certificate_check(result, DIAG_SPLIT) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_instance_margin_is_smallest_weight_eigenvalue(self):
        # Oracle: B + J = J (A + I) for H = J diagonal, so the smallest
        # magnitude is 1 + min eig(A) while the certified radius is 1.
        weight = np.diag([0.5, 2.0, 0.0, 3.0])
        inv = make_involution(np.diag([1.0, 1.0, -1.0, -1.0]))
        result = associate_general(weight, inv.matrix, inv)
        assert min_abs_eig(result.operator + inv.matrix) == pytest.approx(1.0)
        assert result.gap_radius == pytest.approx(1.0)
        assert gap_certificate_check(result, inv) == pytest.approx(0.0, abs=1e-12)

    def test_margin_nonnegative_ensemble(self):
        for seed in range(30):
            weight, coeff, inv = hypothesis_instance(4 + seed % 10, seed)
            result = associate_general(weight, coeff, inv)
            assert gap_certificate_check(result, inv) >= -1e-8

    def test_gap_radius_dominates_alpha_star(self):
        # The certified radius always clears the block margin: the shifted
        # coefficient keeps both block margins at or above alpha*, and
        # coupling pushes the spectrum away from zero, never inward.
        for seed in range(30):
            weight, coeff, inv = hypothesis_instance(4 + seed % 10, seed)
            result = associate_general(weight, coeff, inv)
            assert result.gap_radius >= result.certificate.alpha_star - 1e-10


class TestRepresentationResiduals:
    def test_built_instances_tiny_residuals(self):
        for seed in range(6):
            weight, coeff, inv = hypothesis_instance(8, seed)
            result = associate_general(weight, coeff, inv)
            assert result.first_rep_residual <= 1e-10
            assert result.second_rep_residual <= 1e-10

    def test_perturbed_operator_detected(self):
        weight, coeff, inv = hypothesis_instance(6, seed=11)
        result = associate_general(weight, coeff, inv)
        broken = result.operator + 0.1 * np.eye(6)
        scale = (1.0 + op_norm(weight)) * op_norm(coeff)
        assert first_rep_residual(weight, coeff, broken) >= 0.1 / scale - 1e-12

    def test_kernel_probe_vanishes_both_sides(self):
        weight = np.diag([0.0, 1.0, 2.0])
        coeff = np.diag([1.0, 1.0, -1.0])
        inv = make_involution(np.diag([1.0, 1.0, -1.0]))
        result = associate_general(weight, coeff, inv)
        kernel_vec = np.array([1.0, 0.0, 0.0])
        residual = first_rep_residual(
            weight, coeff, result.operator, probes=[(kernel_vec, kernel_vec)]
        )
        assert residual <= 1e-15

    def test_second_rep_diagonal_sign_form(self):
        # b built from B itself: weight |B|, coefficient diag signs.
        operator = np.diag([2.0, -3.0, 0.0])
        weight = np.abs(operator)
        coeff = np.diag([1.0, -1.0, 1.0])
        assert second_rep_residual(weight, coeff, operator) <= 1e-15

    def test_sign_misuse_detected(self):
        # Replacing sign(B) by the identity inflates the negative part.
        operator = np.diag([2.0, -3.0])
        weight = np.abs(operator)
        coeff = np.diag([1.0, -1.0])
        scale = (1.0 + op_norm(weight)) * op_norm(coeff)
        abs_root = np.sqrt(weight)
        worst = 0.0
        eye = np.eye(2)
        for i in range(2):
            for j in range(2):
                form = (abs_root @ eye[:, i]) @ coeff @ (abs_root @ eye[:, j])
                bad = (abs_root @ eye[:, i]) @ eye @ (abs_root @ eye[:, j])
                worst = max(worst, abs(form - bad) / scale)
        assert worst >= 6.0 / scale - 1e-12
