"""Property tests: the general path's eigenbasis assembly against the original-basis oracle.

``associate_general`` reads every function of the weight ``A = W diag(w) W*`` as a diagonal
in ``W``.  The oracle assembles the same objects in the original basis, with four
``apply_fn`` maps of the clamped weight: ``B = A^(1/2) H A^(1/2)``, the shifted coefficient
``H_s = R H R + (A+I)^(-1) J`` with ``R = A^(1/2) (A+I)^(-1/2)``, its gap radius
``min |eig H_s|``, and the route ``(A+I)^(1/2) H_s (A+I)^(1/2) - J``, which is ``B``.  The
certificate's oracle is the pair of block spectra of ``H`` in the splitting's coordinates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formrep import associate_general, block_decompose, gen_random, make_involution
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
    assert (cert.lambda_min_plus, cert.lambda_max_minus) == (plus[0], minus[-1])
    assert cert.satisfied and cert.alpha_star == min(1.0, plus[0], -minus[-1])
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
