"""Unitary sign, equivalence suite, sufficiency criteria, family diagnostics."""

import numpy as np
import pytest

from formrep import (
    EnumerationBoundError,
    FormrepError,
    associate_general,
    constant_pair,
    counterexample_pair,
    family_diagnostics,
    gen_random,
    make_involution,
    matrix_function,
    min_abs_eig,
    sgn_matrix,
    shifted_coefficient,
    spectral_identity_residual,
    stability_suite,
    sufficient_definite,
    sufficient_semibounded,
    weight_sqrt,
)


def hypothesis_instance(n, seed, alpha=0.5):
    spec = gen_random("general", n, seed, alpha)
    return spec.matrices["A"], spec.matrices["H"], make_involution(spec.matrices["J"])


class TestSgnMatrix:
    def test_zero_maps_to_plus(self):
        out = sgn_matrix(np.diag([3.0, -2.0, 0.0]), 1)
        np.testing.assert_allclose(out, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_zero_maps_to_minus(self):
        out = sgn_matrix(np.diag([3.0, -2.0, 0.0]), -1)
        np.testing.assert_allclose(out, np.diag([1.0, -1.0, -1.0]), atol=1e-14)

    def test_invertible_input_ignores_choice(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((7, 7))
        mat = (raw + raw.T) / 2.0 + 0.5 * np.eye(7)  # keep clear of zero
        plus = sgn_matrix(mat, 1)
        minus = sgn_matrix(mat, -1)
        plain = matrix_function(mat, np.sign)
        assert np.linalg.norm(plus - minus, 2) <= 1e-14
        assert np.linalg.norm(plus - plain, 2) <= 1e-12

    def test_result_is_unitary_involution(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal((6, 6))
            mat = (raw + raw.T) / 2.0
            out = sgn_matrix(mat, 1)
            assert np.linalg.norm(out @ out - np.eye(6), 2) <= 1e-12 * 6

    def test_agrees_with_plain_sign_times_vanishing_functions(self):
        mat = np.diag([2.0, 0.0, -1.0])
        plain = matrix_function(mat, lambda lam: np.sign(lam))
        for zero_sign in (1, -1):
            unit = sgn_matrix(mat, zero_sign)
            for fn in (lambda lam: lam, abs):
                lifted = matrix_function(mat, fn)
                defect = np.linalg.norm(unit @ lifted - plain @ lifted, 2)
                assert defect <= 1e-12

    def test_rejects_bad_choice(self):
        with pytest.raises(FormrepError):
            sgn_matrix(np.eye(2), 0)


class TestStabilitySuite:
    def test_weight_equals_operator(self):
        mat = np.diag([1.0, 2.0])
        report = stability_suite(mat, mat, 1)
        assert report.norm_sign_conjugate == pytest.approx(1.0)
        assert report.involution_residual <= 1e-14
        assert report.inverse_pair_residual <= 1e-14
        assert all(report.conditions.values())

    def test_indefinite_diagonal_with_absolute_weight(self):
        operator = np.diag([3.0, -1.0, 2.0, -4.0])
        weight = np.abs(operator)
        report = stability_suite(weight, operator, 1)
        # K equals the plain sign here and squares to the identity exactly.
        assert report.involution_residual <= 1e-14
        assert report.norm_sign_conjugate == pytest.approx(1.0)

    def test_random_instance_tight_residuals(self):
        weight, coeff, inv = hypothesis_instance(16, seed=4)
        result = associate_general(weight, coeff, inv)
        report = stability_suite(weight, result.operator, 1)
        assert report.inverse_pair_residual <= 1e-10
        assert report.involution_residual <= 1e-10
        assert report.shifted_gap >= 1.0 - 1e-10
        assert report.sgn_invariance_residual <= 1e-10
        assert all(report.conditions.values())

    def test_unit_gap_of_shifted_matrix(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal((9, 9))
            operator = (raw + raw.T) / 2.0
            sign = sgn_matrix(operator, 1)
            assert min_abs_eig(operator + sign) >= 1.0 - 1e-10

    def test_flags_all_agree_on_ensemble(self):
        for seed in range(10):
            weight, coeff, inv = hypothesis_instance(5 + seed % 7, seed)
            result = associate_general(weight, coeff, inv)
            report = stability_suite(weight, result.operator, 1)
            assert all(report.conditions.values())


class TestSufficientDefinite:
    def test_positive_coefficient(self):
        weight = np.diag([0.0, 1.0])
        operator = weight_sqrt(weight) @ np.eye(2) @ weight_sqrt(weight)
        assert sufficient_definite(np.eye(2), operator)

    def test_negative_coefficient(self):
        weight = np.diag([0.5, 2.0])
        coeff = -2.0 * np.eye(2)
        root = weight_sqrt(weight)
        assert sufficient_definite(coeff, root @ coeff @ root)

    def test_indefinite_inapplicable(self):
        coeff = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert not sufficient_definite(coeff, coeff)


class TestSufficientSemibounded:
    def test_zero_weight_doubles_once(self):
        # Oracle: at c = 1 the shifted block J + c I is only PSD and -1/c
        # hits the inverse spectrum; c = 2 clears both conditions.
        inv = make_involution(np.diag([1.0, -1.0]))
        ok, found = sufficient_semibounded(
            np.zeros((2, 2)), inv.matrix, np.zeros((2, 2)), inv
        )
        assert ok and found == pytest.approx(2.0)

    def test_psd_operator_first_try(self):
        weight = np.diag([0.5, 1.5, 3.0, 0.0])
        inv = make_involution(np.diag([1.0, 1.0, -1.0, -1.0]))
        _, shifted = shifted_coefficient(weight, np.eye(4), inv)
        root = weight_sqrt(weight)
        operator = root @ np.eye(4) @ root
        ok, found = sufficient_semibounded(weight, shifted, operator, inv)
        assert ok and found == pytest.approx(np.linalg.norm(operator, 2) + 1.0)

    def test_indefinite_instance_terminates_fast(self):
        weight, coeff, inv = hypothesis_instance(10, seed=6)
        result = associate_general(weight, coeff, inv)
        ok, found = sufficient_semibounded(
            weight, shifted_coefficient(weight, coeff, inv)[1], result.operator, inv
        )
        assert ok
        start = np.linalg.norm(result.operator, 2) + 1.0
        steps = int(round(np.log2(found / start))) + 1
        assert steps <= 20

    def test_singular_shifted_operator_stops_at_once(self, monkeypatch):
        # B + J = diag(0, 1) is singular, so no constant clears its spectrum; the search
        # returns the last of its 60 constants, 3 * 2^59 from ||B|| + 1 = 3, without trying them.
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        inv = make_involution(np.diag([1.0, -1.0]))
        found = sufficient_semibounded(np.eye(2), inv.matrix, np.diag([-1.0, 2.0]), inv)
        assert found == (False, 3.0 * 2.0**59)
        assert len(calls) <= 2


class TestSpectralIdentity:
    def test_adjoint_pair_rectangular(self):
        rng = np.random.default_rng(3)
        tall = rng.standard_normal((3, 2))
        assert spectral_identity_residual(tall, tall.T) <= 1e-10

    def test_zero_factor(self):
        assert spectral_identity_residual(np.zeros((3, 2)), np.ones((2, 3))) == 0.0

    def test_identity_factors(self):
        assert spectral_identity_residual(np.eye(4), np.eye(4)) <= 1e-12

    def test_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p, q = rng.integers(1, 8, size=2)
            left = rng.standard_normal((p, q))
            right = rng.standard_normal((q, p))
            assert spectral_identity_residual(left, right) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(FormrepError):
            spectral_identity_residual(np.zeros((2, 3)), np.zeros((2, 3)))


class TestFamilyDiagnostics:
    def test_counterexample_smallest_truncation(self):
        diag = family_diagnostics(counterexample_pair, [1])
        assert diag.gap_search_outcomes == [False]
        assert diag.norm_sequences["operator"][0] == pytest.approx(1.0)
        assert diag.norm_sequences["weight_condition"][0] == pytest.approx(4.0)

    def test_counterexample_growth_signature(self):
        diag = family_diagnostics(counterexample_pair, [1, 2, 3])
        assert diag.gap_search_outcomes == [False, False, False]
        np.testing.assert_allclose(
            diag.norm_sequences["operator"], [1.0, 1.0, 1.0], atol=1e-12
        )
        np.testing.assert_allclose(
            diag.norm_sequences["weight_condition"], [4.0, 9.0, 16.0], rtol=1e-12
        )
        # Unbounded-coefficient signature: the conjugated norms grow.
        conj = diag.norm_sequences["coefficient_conjugate"]
        assert conj[0] < conj[1] < conj[2]
        sign_conj = diag.norm_sequences["sign_conjugate"]
        np.testing.assert_allclose(sign_conj, np.sqrt([2.0, 3.0, 4.0]), rtol=1e-10)

    def test_constant_family_flat(self):
        diag = family_diagnostics(constant_pair, [1, 2, 3])
        assert diag.gap_search_outcomes == [True, True, True]
        for key in ("operator", "weighted_abs", "weighted_abs_inverse", "sign_conjugate"):
            seq = diag.norm_sequences[key]
            assert max(seq) - min(seq) <= 1e-12

    def test_size_guard(self):
        with pytest.raises(EnumerationBoundError):
            family_diagnostics(counterexample_pair, [7])
