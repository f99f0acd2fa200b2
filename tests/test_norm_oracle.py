"""Norms taken without an SVD equal the SVD values they replace.

The stability suite reads the norms of products that are symmetric by
construction from ``eigvalsh``, takes one product order of each inverse
pair, and settles flag-only norms by the Frobenius norm first.  On the
parity cases each of these is compared with the SVD formula it replaced:
gated norms agree to ``REL_TOL`` relative; rounding-level residuals are
held, as in ``test_parity.py``, only to the bounds of the flags that hold
them, and every flag must come out the same.
"""

import math

import numpy as np
import pytest

from formrep import (
    assemble_offdiag,
    associate_general,
    check_offdiagonal,
    make_involution,
    offdiag_problem,
)
from formrep.spectral import _signum, _sym_norm, apply_fn
from formrep.stability import FLAG_TOL, _stability
from test_parity import CASES, build

REL_TOL = 1e-12


def norm(mat):
    return float(np.linalg.norm(mat, 2))


def svd_suite(weight, sym_b, decomp):
    """The suite's norms, residuals and flags by SVD 2-norms, both product orders."""
    eye = np.eye(sym_b.shape[0])
    grow = apply_fn(weight, lambda lam: np.sqrt(1.0 + lam))
    shrink = apply_fn(weight, lambda lam: 1.0 / np.sqrt(1.0 + lam))
    signed = _signum(decomp, 1.0)
    sign_mat = apply_fn(decomp, signed)
    x = shrink @ apply_fn(decomp, lambda lam: abs(lam + signed(lam))) @ shrink
    y = grow @ apply_fn(decomp, lambda lam: 1.0 / abs(lam + signed(lam))) @ grow
    xt = grow @ apply_fn(decomp, lambda lam: 1.0 / (lam + signed(lam))) @ grow
    forward = shrink @ (sym_b + sign_mat) @ shrink
    conj = grow @ sign_mat @ shrink
    sign_gap = sign_mat - apply_fn(decomp, _signum(decomp, 0.0))

    def inverse_defect(first, second):
        return max(norm(first @ second - eye), norm(second @ first - eye))

    out = {"norm_x": norm(x), "norm_y": norm(y), "norm_xt": norm(xt), "norm_k": norm(conj)}
    out["symmetric"] = {"norm_x": x, "norm_y": y, "norm_xt": xt}
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
        "iv": norm(conj @ conj - eye) <= FLAG_TOL * max(1.0, out["norm_k"] ** 2),
        "v": norm(conj - xt @ x) <= FLAG_TOL * max(1.0, out["norm_xt"] * out["norm_x"]),
    }
    return out


def assembled(case):
    matrices = build(case).matrices
    if case.startswith("general"):
        inv = make_involution(matrices["J"])
        return associate_general(matrices["A"], matrices["H"], inv), inv
    problem = offdiag_problem(matrices["A_plus"], matrices["A_minus"], matrices["T"])
    return assemble_offdiag(problem), problem.splitting()


@pytest.mark.parametrize("case", CASES)
def test_stability_norms_match_the_svd(case):
    result, _ = assembled(case)
    report = _stability(result.weight, result.operator, result.decomposition, 1)
    oracle = svd_suite(result.weight, result.operator, result.decomposition)
    for got, key in (
        (report.norm_weighted_abs, "norm_x"),
        (report.norm_weighted_abs_inverse, "norm_y"),
        (report.norm_sign_conjugate, "norm_k"),
    ):
        assert math.isclose(got, oracle[key], rel_tol=REL_TOL), (key, got, oracle[key])
    for key, mat in oracle["symmetric"].items():
        assert math.isclose(_sym_norm(mat), oracle[key], rel_tol=REL_TOL), key
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
