"""Property tests: the general path's eigenbasis assembly against the original-basis oracle.

``associate_general`` reads every function of the weight ``A = W diag(w) W*`` as a diagonal
in ``W``.  The oracle assembles the same objects in the original basis, with four
``apply_fn`` maps of the clamped weight: ``B = A^(1/2) H A^(1/2)``, the shifted coefficient
``H_s = R H R + (A+I)^(-1) J`` with ``R = A^(1/2) (A+I)^(-1/2)``, its gap radius
``min |eig H_s|``, and the route ``(A+I)^(1/2) H_s (A+I)^(1/2) - J``, which is ``B``.  The
certificate's oracle is the pair of block spectra of ``H`` in the splitting's coordinates,
to rounding.  A change of units scales ``B`` with ``H`` or the weight, and a run of the
rescaled problem certifies it, raises no internal check and sets every stability flag.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formrep import associate_general, block_decompose, gen_random, make_involution, run
from formrep.general import _clamped_weight
from formrep.spectral import apply_fn, min_abs_eig, random_orthogonal, symmetrize

ORACLE_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def oracle(mat_a, mat_h, inv):
    """``(B, gap radius, route defect)`` assembled in the original basis."""
    weight, sym_h = _clamped_weight(symmetrize(mat_a)), symmetrize(mat_h)
    root = apply_fn(weight, np.sqrt)
    contraction = apply_fn(weight, lambda lam: np.sqrt(lam / (1.0 + lam)))
    resolvent_at_one = apply_fn(weight, lambda lam: 1.0 / (1.0 + lam))
    shifted_root = apply_fn(weight, lambda lam: np.sqrt(1.0 + lam))
    operator = root @ sym_h @ root
    shifted = contraction @ sym_h @ contraction + resolvent_at_one @ inv.matrix
    route = shifted_root @ shifted @ shifted_root - inv.matrix - operator
    return operator, min_abs_eig((shifted + shifted.conj().T) / 2), np.linalg.norm(route, 2)


def assert_matches_oracle(mat_a, mat_h, inv):
    result = associate_general(mat_a, mat_h, inv)
    operator, gap_radius, route = oracle(mat_a, mat_h, inv)
    scale = (1.0 + np.linalg.norm(mat_a, 2)) * np.linalg.norm(mat_h, 2)
    assert np.linalg.norm(result.operator - operator, 2) <= 1e-12 * scale
    assert route <= 1e-10 * scale
    assert result.gap_radius == pytest.approx(gap_radius, rel=1e-12)
    blocks = block_decompose(mat_h, inv)
    plus, minus = np.linalg.eigvalsh(blocks.plus_block), np.linalg.eigvalsh(blocks.minus_block)
    cert = result.certificate
    # The certificate forms each diagonal block on its own basis, the oracle all four in one
    # product on the whole frame; the roundings differ by about 0.14 n eps ||H|| at most.
    rounding = len(mat_h) * np.finfo(float).eps * np.linalg.norm(mat_h, 2)
    assert abs(cert.lambda_min_plus - plus[0]) <= rounding
    assert abs(cert.lambda_max_minus - minus[-1]) <= rounding
    assert cert.satisfied
    assert cert.alpha_star == min(1.0, cert.lambda_min_plus, -cert.lambda_max_minus)
    assert result.gap_radius >= cert.alpha_star - 1e-10


@ORACLE_SETTINGS
@given(
    n=st.integers(2, 48),
    seed=st.integers(0, 2**31 - 1),
    alpha=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
)
def test_general_assembly_matches_the_original_basis_oracle(n, seed, alpha):
    mats = gen_random("general", n, seed, alpha).matrices
    assert_matches_oracle(mats["A"], mats["H"], make_involution(mats["J"]))


def test_complex_hermitian_assembly_matches_the_oracle():
    # A real instance turned by a unitary U = Q1 exp(i phases) Q2 keeps its spectra and
    # splitting, and every matrix becomes complex Hermitian.
    mats = gen_random("general", 20, 7, 0.5).matrices
    rng = np.random.default_rng(7)
    unitary = random_orthogonal(20, rng) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    unitary = unitary @ random_orthogonal(20, rng)
    turned = {name: unitary @ mats[name] @ unitary.conj().T for name in ("A", "H", "J")}
    assert all(np.abs(mat.imag).max() > 0.1 for mat in turned.values())
    assert_matches_oracle(turned["A"], turned["H"], make_involution(turned["J"]))


@ORACLE_SETTINGS
@given(n=st.integers(2, 64), seed=st.integers(0, 2**31 - 1), exponent=st.integers(-8, 6))
@example(n=64, seed=0, exponent=6)  # flag i once scaled X~ F - I by ||Y|| in place of ||F||
def test_rescaled_coefficient_runs_clean(n, seed, exponent):
    spec = gen_random("general", n, seed)
    spec.matrices["H"] = spec.matrices["H"] * 10.0**exponent
    report = run(spec)
    assert report.certificate["satisfied"]
    assert report.checks["stability_conditions_agree"]


@ORACLE_SETTINGS
@given(
    dims=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    seed=st.integers(0, 2**31 - 1),
    kernels=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    exponent=st.integers(0, 6),
)
def test_rescaled_weights_run_clean(dims, seed, kernels, exponent):
    # Weights up to 1e6 keep n eps ||A|| below 1e-8.  Weights with n eps ||A|| >= 1 are left
    # out: their computed kernel eigenvalues, of that size, swamp the unit shift of A + I, and
    # _definitional_cross_check raises (from A_pm times 1e17 at these sizes).
    kernels = (min(kernels[0], dims[0]), min(kernels[1], dims[1]))
    spec = gen_random("offdiag", dims, seed, kernel_dims=kernels)
    for name in ("A_plus", "A_minus"):
        spec.matrices[name] = spec.matrices[name] * 10.0**exponent
    run(spec)
