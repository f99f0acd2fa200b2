"""Norms taken without an SVD equal the SVD values they replace.

The stability suite reads the norms of products that are symmetric by
construction from ``eigvalsh``, takes one product order of each inverse
pair, and settles flag-only norms by the Frobenius norm first.  On the
parity cases each of these is compared with the SVD formula it replaced:
gated norms agree to ``REL_TOL`` relative; rounding-level residuals are
held, as in ``test_parity.py``, only to the bounds of the flags that hold
them, and every flag must come out the same.

The suite itself runs in the weight's eigenbasis.  ``svd_suite`` forms every
product in the original basis, with ``(A+I)^(1/2)`` and ``(A+I)^(-1/2)``
mapped from the weight, so it is also the oracle for that change: on the
parity cases and one n=384 problem of each kind the reported norms and the
unit gap agree to ``REL_TOL`` relative, every flag is equal, and each
Gram-based norm equals the SVD of the same matrix.
"""

import functools
import math

import numpy as np
import pytest

from formrep import (
    assemble_offdiag,
    associate_general,
    canonical_involution,
    check_offdiagonal,
    eig_sym,
    make_involution,
    offdiag_problem,
)
from formrep.errors import InternalCheckError
from formrep.spectral import (
    SpectralDecomposition,
    _gram_norm,
    _sign,
    _sym_norm,
    apply_fn,
    min_abs_eig,
)
from formrep.stability import FLAG_TOL, _stability
from test_parity import CASES, build

REL_TOL = 1e-12

#: The parity cases plus one n=384 problem of each kind.
ORACLE_CASES = CASES + ["general-384-0", "offdiag-192x192-1"]


def norm(mat):
    return float(np.linalg.norm(mat, 2))


def svd_suite(weight, sym_b, decomp):
    """The suite's norms, residuals and flags by SVD 2-norms, both product orders,
    in the original basis; ``gram_normed`` holds the sign conjugate, whose norm the
    suite reads from its Gram matrix, and the two residual matrices, whose Frobenius
    norms the suite reports."""
    eye = np.eye(sym_b.shape[0])
    grow = apply_fn(weight, lambda lam: np.sqrt(1.0 + lam))
    shrink = apply_fn(weight, lambda lam: 1.0 / np.sqrt(1.0 + lam))

    def signed(lam, zero=1.0):
        return _sign(lam, decomp.n, decomp.source_norm, zero)

    sign_mat = apply_fn(decomp, signed)
    x = shrink @ apply_fn(decomp, lambda lam: abs(lam + signed(lam))) @ shrink
    y = grow @ apply_fn(decomp, lambda lam: 1.0 / abs(lam + signed(lam))) @ grow
    xt = grow @ apply_fn(decomp, lambda lam: 1.0 / (lam + signed(lam))) @ grow
    forward = shrink @ (sym_b + sign_mat) @ shrink
    conj = grow @ sign_mat @ shrink
    sign_gap = sign_mat - apply_fn(decomp, lambda lam: signed(lam, 0.0))

    def inverse_defect(first, second):
        return max(norm(first @ second - eye), norm(second @ first - eye))

    out = {"norm_x": norm(x), "norm_y": norm(y), "norm_xt": norm(xt), "norm_k": norm(conj)}
    out["symmetric"] = {"norm_x": x, "norm_y": y, "norm_xt": xt}
    out["shifted_gap"] = min_abs_eig(sym_b + sign_mat)
    out["gram_normed"] = {
        "norm_sign_conjugate": conj,
        "involution_residual": conj @ conj - eye,
        "inverse_pair_residual": xt @ forward - eye,
    }
    out["involution_residual"] = norm(out["gram_normed"]["involution_residual"])
    out["inverse_pair_residual"] = inverse_defect(xt, forward)
    out["sgn_invariance_residual"] = max(
        norm(sign_gap @ sym_b), norm(sign_gap @ apply_fn(decomp, abs))
    )
    flag_x = norm(x - x.T) <= FLAG_TOL * max(1.0, out["norm_x"])
    flag_y = norm(y - y.T) <= FLAG_TOL * max(1.0, out["norm_y"])
    out["conditions"] = {
        "i": inverse_defect(x, y) <= FLAG_TOL * max(1.0, out["norm_x"] * out["norm_y"])
        and out["inverse_pair_residual"]
        <= FLAG_TOL * max(1.0, out["norm_xt"] * out["norm_y"]),
        "ii": flag_x,
        "iii": flag_x,
        "ii'": flag_y,
        "iii'": flag_y,
        "iv": out["involution_residual"] <= FLAG_TOL * max(1.0, out["norm_k"] ** 2),
        "v": norm(conj - xt @ x) <= FLAG_TOL * max(1.0, out["norm_xt"] * out["norm_x"]),
    }
    return out


@functools.lru_cache(maxsize=None)
def assembled(case):
    matrices = build(case).matrices
    if case.startswith("general"):
        inv = make_involution(matrices["J"])
        return associate_general(matrices["A"], matrices["H"], inv), inv
    problem = offdiag_problem(matrices["A_plus"], matrices["A_minus"], matrices["T"])
    return assemble_offdiag(problem), canonical_involution(problem.dim_plus, problem.dim_minus)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_stability_norms_match_the_svd(case):
    result, _ = assembled(case)
    report = _stability([result.weight, result.operator, result.decomposition], 1)
    oracle = svd_suite(result.weight, result.operator, result.decomposition)
    for got, key in (
        (report.norm_weighted_abs, "norm_x"),
        (report.norm_weighted_abs_inverse, "norm_y"),
        (report.norm_sign_conjugate, "norm_k"),
    ):
        assert math.isclose(got, oracle[key], rel_tol=REL_TOL), (key, got, oracle[key])
    for key, mat in oracle["symmetric"].items():
        assert math.isclose(_sym_norm(mat), oracle[key], rel_tol=REL_TOL), key
    assert math.isclose(report.shifted_gap, oracle["shifted_gap"], rel_tol=REL_TOL)
    involution_bound = FLAG_TOL * max(1.0, oracle["norm_k"] ** 2)
    assert report.involution_residual <= involution_bound
    assert oracle["involution_residual"] <= involution_bound
    pair_bound = FLAG_TOL * max(1.0, oracle["norm_xt"] * oracle["norm_y"])
    assert report.inverse_pair_residual <= pair_bound
    assert oracle["inverse_pair_residual"] <= pair_bound
    sgn_bound = FLAG_TOL * max(1.0, result.decomposition.source_norm)
    assert report.sgn_invariance_residual <= sgn_bound
    assert oracle["sgn_invariance_residual"] <= sgn_bound
    assert dict(report.conditions) == oracle["conditions"]
    assert all(report.conditions.values())


@pytest.mark.parametrize("case", CASES)
def test_offdiagonal_residual_matches_the_svd(case):
    _, inv = assembled(case)
    proj_p, proj_m = inv.projector_plus, inv.projector_minus
    raw = np.random.default_rng(CASES.index(case)).standard_normal((inv.n, inv.n))
    coupling = proj_p @ raw @ proj_m
    for mat, verdict in ((coupling + coupling.T, True), (raw + raw.T, False)):
        ok, residual = check_offdiagonal(mat, inv)
        expected = max(norm(proj_p @ mat @ proj_p), norm(proj_m @ mat @ proj_m))
        assert ok is verdict and (expected <= 1e-10 * norm(mat)) is verdict
        if verdict:  # rounding level: both within the check's bound
            assert residual <= 1e-10 * norm(mat)
        else:
            assert math.isclose(residual, expected, rel_tol=REL_TOL), (residual, expected)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_gram_norms_match_the_svd(case):
    result, _ = assembled(case)
    oracle = svd_suite(result.weight, result.operator, result.decomposition)
    for key, mat in oracle["gram_normed"].items():
        assert math.isclose(_gram_norm(mat), norm(mat), rel_tol=REL_TOL), key


def test_gram_norm_edges():
    assert _gram_norm(np.zeros((4, 3))) == 0.0
    raw = np.random.default_rng(7).standard_normal((6, 5))
    for scale in (1.0, 1e-160, 1e150):
        mat = scale * raw
        assert math.isclose(_gram_norm(mat), norm(mat), rel_tol=REL_TOL), scale


def test_unit_gap_is_checked_on_the_operator():
    # The decomposition of -B gives B the wrong sign: B + sgn(-B) has an
    # eigenvalue |lam| - 1 inside (-1, 1), though |lam + sgn lam| >= 1 for
    # every eigenvalue lam of the decomposition.
    result, _ = assembled("general-5-0")
    wrong = eig_sym(-result.operator)
    with pytest.raises(InternalCheckError, match="unit gap"):
        _stability([result.weight, result.operator, wrong], 1)


def test_condition_i_tests_the_decomposition_against_the_operator():
    # Scaling B keeps its kernel and the unit gap of B + sgn B, but no longer
    # matches the decomposition: the inverse pair misses by about 1e-6.
    result, _ = assembled("general-24-1")
    moved = (1.0 + 1e-6) * result.operator
    report = _stability([result.weight, moved, result.decomposition], 1)
    oracle = svd_suite(result.weight, moved, result.decomposition)
    assert report.conditions == oracle["conditions"]
    assert not report.conditions["i"] and report.conditions["iv"]
    # The suite reports the Frobenius norm of X~ F - I, which bounds its 2-norm.  A
    # difference from I keeps the absolute rounding of its O(1) terms, about 1e-15:
    # 1e-9 of this residual.
    residual = oracle["gram_normed"]["inverse_pair_residual"]
    got = report.inverse_pair_residual
    assert math.isclose(got, float(np.linalg.norm(residual)), rel_tol=1e-8)
    assert got >= oracle["inverse_pair_residual"]


def test_condition_iv_tests_the_sign_conjugate_as_an_involution():
    # Eigenvectors scaled by 1 + 1e-6 perturb the sign conjugate K to (1 + 1e-6)^2 K
    # with K^2 = (1 + 1e-6)^4 I, which misses I by about 4e-6; B + sgn B keeps its gap.
    result, _ = assembled("general-24-1")
    decomp = result.decomposition
    scaled = SpectralDecomposition(
        decomp.eigenvalues, (1.0 + 1e-6) * decomp.eigenvectors, decomp.source_norm
    )
    report = _stability([result.weight, result.operator, scaled], 1)
    oracle = svd_suite(result.weight, result.operator, scaled)
    assert report.conditions == oracle["conditions"]
    assert not report.conditions["iv"]
    residual = oracle["gram_normed"]["involution_residual"]
    got = report.involution_residual
    assert math.isclose(got, float(np.linalg.norm(residual)), rel_tol=1e-8)
    assert got >= oracle["involution_residual"]
