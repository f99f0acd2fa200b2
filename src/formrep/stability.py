"""Domain-stability diagnostics for the represented form.

In infinite dimensions the second representation identity needs the domain
of ``|B|^(1/2)`` to equal the form domain.  That condition is equivalent to
boundedness of a handful of derived operators (built from the unitary sign
of ``B`` with a selectable sign of zero), and is implied by definiteness or
semiboundedness criteria.  At a fixed finite dimension every "bounded"
statement is vacuously true, so the suite here reports the *norms* of the
derived operators and flags a condition false only on numerical
inconsistency.  Across a truncation family, monotone growth of those norms
is the operational signature of infinite-dimensional failure; the family
driver collects the growth data and sweeps all diagonal splittings for a
gap certificate at each truncation size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import EnumerationBoundError, FormrepError, InternalCheckError, SingularMatrixError
from .general import _clamped_weight, check_gap_hypothesis
from .involution import Involution, enumerate_diagonal_involutions
from .spectral import (
    SpectralDecomposition,
    _eigh,
    _gram_norm,
    _hermitian,
    _in_frame,
    _min_abs,
    _norm2_above,
    _signum,
    _spectral_map,
    _sym_norm,
    eig_sym,
    kernel_tol,
    symmetrize,
)

#: Relative tolerance for the consistency flags of the equivalence suite.
FLAG_TOL = 1e-8

#: Largest family index admitted to the exhaustive involution sweep.
MAX_FAMILY_INDEX = 6

#: Shift constants ``sufficient_semibounded`` tries before it gives up.
_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class StabilityReport:
    """Norms, residuals and consistency flags of the equivalence suite.

    ``conditions`` maps the seven equivalence labels to booleans; at finite
    dimension all seven must agree (all true) and any disagreement points
    at a tolerance bug rather than at the mathematics.
    """

    norm_weighted_abs: float
    norm_weighted_abs_inverse: float
    norm_sign_conjugate: float
    involution_residual: float
    inverse_pair_residual: float
    sgn_invariance_residual: float
    shifted_gap: float
    conditions: Mapping[str, bool]


@dataclass(frozen=True)
class FamilyDiagnostics:
    """Per-size norm sequences and gap-search outcomes for a truncation family."""

    truncation_sizes: list[int]
    norm_sequences: dict[str, list[float]]
    gap_search_outcomes: list[bool]


def _validate_zero_sign(zero_sign: int) -> int:
    if zero_sign not in (-1, 1):
        raise FormrepError(f"sign of zero must be -1 or +1, got {zero_sign!r}")
    return int(zero_sign)


def sgn_matrix(mat: np.ndarray, zero_sign: int = 1) -> np.ndarray:
    """Unitary sign of a self-adjoint matrix with a chosen sign of zero.

    Eigenvalues within the kernel threshold of zero map to ``zero_sign``;
    the result is a unitary involution.  For invertible input the choice of
    ``zero_sign`` is immaterial.
    """
    s, decomp = _validate_zero_sign(zero_sign), eig_sym(mat)
    return _spectral_map(decomp, _signum(decomp, float(s))(decomp.eigenvalues))


def stability_suite(
    mat_a: np.ndarray, operator: np.ndarray, zero_sign: int = 1
) -> StabilityReport:
    """Run the equivalence suite for a weight / associated-matrix pair.

    Builds the weighted absolute value, its inverse dilation, the sign
    conjugate, and the mutually inverse shifted pair; fills every residual
    and sets the seven condition flags from the residuals.

    The shifted matrix ``B + sgn(B)`` is boundedly invertible with unit gap
    by construction; a breach of that bound indicates a broken sign and is
    raised, not reported.
    """
    s = _validate_zero_sign(zero_sign)
    sym_a = symmetrize(mat_a, "weight")
    sym_b = symmetrize(operator, "operator")
    if sym_a.shape != sym_b.shape:
        raise FormrepError(
            f"dimension mismatch: weight {sym_a.shape[0]}, operator {sym_b.shape[0]}"
        )
    return _stability(_clamped_weight(sym_a), sym_b, _eigh(sym_b), s)


def _minus_eye(prod: np.ndarray) -> np.ndarray:
    """``prod - I``, in place on the diagonal of a fresh product."""
    prod.flat[:: prod.shape[0] + 1] -= 1.0
    return prod


def _stability(
    weight: SpectralDecomposition, sym_b: np.ndarray, decomp: SpectralDecomposition, s: int
) -> StabilityReport:
    """``stability_suite`` on the clamped decomposition of the weight and the
    decomposition ``decomp`` of the operator ``sym_b``, in the weight's eigenbasis
    ``W`` (every norm reported is unitarily invariant): ``(A+I)^(1/2)`` and its
    inverse are diagonal there, and ``f(B)`` is ``Q diag(f(lam)) Q*``, ``Q = W* V``.
    Norms come from ``eigvalsh`` of symmetric matrices, of the Gram matrix of ``K``, or
    from ``lam``; no SVD is taken.  ``Y = X^-1``, so ``||Y|| = 1 / min |eig X|`` comes
    from the spectrum of ``X``.  The residuals ``X~ F - I`` and ``K^2 - I`` are Frobenius
    norms, upper bounds on their 2-norms, so flags i and iv are at least as strict as with
    the 2-norm.  The unit gap and the forward pair use ``sym_b`` itself.
    Each n x n matrix lives from its first use to its last, in this order: ``B + sgn B``
    (unit gap, forward pair ``F``), ``X~`` (norm, ``X~ F - I``; ``F`` goes), ``X`` and ``Y``
    (norms, flags ii/iii, ``XY - I``; ``Y`` goes), ``K`` (norm, ``K^2 - I``, ``K - X~ X``)."""
    lam = decomp.eigenvalues
    signs = _signum(decomp, float(s))(lam)
    shifted = sym_b + _spectral_map(decomp, signs)
    shifted_gap = _min_abs(shifted)
    if shifted_gap < 1.0 - 1e-10:
        raise InternalCheckError(
            f"shifted matrix lost its unit gap: min |eig(B + sgn B)| = {shifted_gap!r}"
        )
    grow = np.sqrt(1.0 + weight.eigenvalues)[:, None]  # g as a column
    shrink = 1.0 / grow
    shifted_forward_pair = shrink * _in_frame(weight, shifted) * shrink.T
    del shifted  # dropped after its last use, as is each n x n matrix below
    to_frame = weight.eigenvectors.conj().T  # W*
    rotated = SpectralDecomposition(lam, to_frame @ decomp.eigenvectors, decomp.source_norm)

    def within(mat: np.ndarray, scale: float) -> bool:
        return _norm2_above(mat, FLAG_TOL * max(1.0, scale)) is None

    def symmetric(mat: np.ndarray, scale: float) -> bool:
        return bool(np.isfinite(mat).all() and within(mat - mat.conj().T, scale))

    shifted_inverse_pair = grow * _spectral_map(rotated, 1.0 / (lam + signs)) * grow.T
    norm_xt = _sym_norm(shifted_inverse_pair)
    # Both factors of each inverse pair are symmetric: S F - I = (F S - I)^T.
    inverse_pair_residual = float(
        np.linalg.norm(_minus_eye(shifted_inverse_pair @ shifted_forward_pair))
    )
    del shifted_forward_pair
    weighted_abs = shrink * _spectral_map(rotated, np.abs(lam + signs)) * shrink.T
    weighted_abs_inverse = grow * _spectral_map(rotated, 1.0 / np.abs(lam + signs)) * grow.T
    x_vals = np.abs(np.linalg.eigvalsh(weighted_abs))
    norm_x, norm_y = float(np.max(x_vals)), 1.0 / float(np.min(x_vals))
    flag_x = symmetric(weighted_abs, norm_x)
    flag_y = symmetric(weighted_abs_inverse, norm_y)
    pair_x_y = within(_minus_eye(weighted_abs @ weighted_abs_inverse), norm_x * norm_y)
    del weighted_abs_inverse, x_vals
    sign_conjugate = grow * _spectral_map(rotated, signs) * shrink.T
    norm_k = _gram_norm(sign_conjugate)
    involution_residual = float(np.linalg.norm(_minus_eye(sign_conjugate @ sign_conjugate)))
    # (sgn_s - sgn_0)(B) B and (sgn_s - sgn_0)(B) |B| both have norm max |(sgn_s - sgn_0) lam|.
    sign_gap = signs - _signum(decomp, 0.0)(lam)
    sgn_invariance_residual = float(np.max(np.abs(sign_gap * lam), initial=0.0))
    conditions = {
        "i": pair_x_y and inverse_pair_residual <= FLAG_TOL * max(1.0, norm_xt * norm_y),
        "ii": flag_x,
        "iii": flag_x,
        "ii'": flag_y,
        "iii'": flag_y,
        "iv": bool(involution_residual <= FLAG_TOL * max(1.0, norm_k**2)),
        "v": bool(
            np.isfinite(sign_conjugate).all()
            and within(sign_conjugate - shifted_inverse_pair @ weighted_abs, norm_xt * norm_x)
        ),
    }
    return StabilityReport(
        norm_weighted_abs=norm_x,
        norm_weighted_abs_inverse=norm_y,
        norm_sign_conjugate=norm_k,
        involution_residual=involution_residual,
        inverse_pair_residual=inverse_pair_residual,
        sgn_invariance_residual=sgn_invariance_residual,
        shifted_gap=shifted_gap,
        conditions=conditions,
    )


def sufficient_definite(mat_h: np.ndarray, operator: np.ndarray) -> bool:
    """Definiteness criterion for domain stability.

    A strictly positive coefficient forces the associated matrix to be PSD,
    so its unitary sign with ``zero_sign=+1`` is the identity (and the
    mirror statement for strictly negative coefficients).  Returns False
    when the coefficient is indefinite and the criterion does not apply.
    The defect ``||sgn B - s I||_2 = max |sgn(lam) - s|`` is read off ``lam = eig B``.
    """
    sym_h = symmetrize(mat_h, "coefficient")
    sym_b = symmetrize(operator, "operator")
    vals = np.linalg.eigvalsh(sym_h)
    tau = kernel_tol(sym_h.shape[0], float(np.max(np.abs(vals), initial=0.0)))
    for sign, definite in ((1, vals[0] > tau), (-1, vals[-1] < -tau)):
        if definite:
            lam = np.linalg.eigvalsh(sym_b)
            zero = np.abs(lam) <= kernel_tol(len(lam), float(np.max(np.abs(lam))))
            defect = float(np.max(np.abs(np.where(zero, sign, np.sign(lam)) - sign)))
            if defect > 1e-10:
                raise InternalCheckError(
                    f"{'positive' if sign > 0 else 'negative'} coefficient but sign is not "
                    f"{sign:+d} times the identity: defect {defect:.3e}"
                )
            return True
    return False


def sufficient_semibounded(
    mat_a: np.ndarray,
    shifted_coeff: np.ndarray,
    operator: np.ndarray,
    inv: Involution,
) -> tuple[bool, float]:
    """Semiboundedness criterion: search for a certifying shift constant.

    Doubling from ``||B|| + 1``, the search accepts the first constant
    ``c`` for which the shifted coefficient plus ``c (A + I)^(-1)`` is
    strictly positive and ``-1/c`` stays clear of the spectrum of the
    inverse shifted matrix.  Returns ``(True, c)`` on success, otherwise
    ``(False, last c tried)`` after ``_MAX_DOUBLINGS`` constants, the same
    value returned at once when ``B + J`` is singular.

    With ``G = (A + I)^(1/2)``, ``H_shifted + c G^-2 = G^-1 (G H_shifted G + c) G^-1``,
    so by Sylvester's law of inertia it is positive exactly when ``G H_shifted G + c``
    is: one spectrum ``mu`` of ``G H_shifted G`` decides every constant, and ``c`` passes
    when ``mu_min + c`` exceeds ``kernel_tol`` of ``max |mu + c|``.
    """
    weight = _clamped_weight(symmetrize(mat_a, "weight"))
    sym_coeff = symmetrize(shifted_coeff, "shifted coefficient")
    sym_b = symmetrize(operator, "operator")
    n = weight.n
    shifted_vals = np.linalg.eigvalsh(sym_b + inv.matrix)
    constants = (_sym_norm(sym_b) + 1.0) * 2.0 ** np.arange(_MAX_DOUBLINGS)  # the doublings
    if not min(np.abs(shifted_vals)) > kernel_tol(n, float(np.max(np.abs(shifted_vals)))):
        # The spectrum of a singular B + J is never clear, so no constant can certify.
        return False, float(constants[-1])

    tau_inverse = kernel_tol(n, 1.0 / max(min(np.abs(shifted_vals)), 1e-300))
    grow = np.sqrt(1.0 + weight.eigenvalues)[:, None]
    congruent_vals = np.linalg.eigvalsh(grow * _in_frame(weight, sym_coeff) * grow.T)
    candidates = congruent_vals[:, None] + constants  # column k: spectrum of G H_shifted G + c_k
    positive = candidates[0] > kernel_tol(n, np.max(np.abs(candidates), axis=0))
    clear = np.min(np.abs(1.0 / shifted_vals[:, None] - (-1.0 / constants)), axis=0) > tau_inverse
    passed = np.flatnonzero(positive & clear)
    return (True, float(constants[passed[0]])) if passed.size else (False, float(constants[-1]))


#: Threshold scale for nonzero-spectrum detection: eigenvalues of the
#: (non-normal) products perturb a few hundred times harder than the
#: symmetric baseline, so the kernel policy is reused at this multiplier.
NONNORMAL_TOL_SCALE = 1e4


def spectral_identity_residual(left: np.ndarray, right: np.ndarray) -> float:
    """Hausdorff distance between the nonzero spectra of the two products.

    For a ``p x q`` matrix ``L`` and a ``q x p`` matrix ``R`` the products
    ``LR`` and ``RL`` share their nonzero eigenvalues; eigenvalues inside
    the kernel threshold are dropped before comparison.
    """
    lmat = np.asarray(left, dtype=np.float64)
    rmat = np.asarray(right, dtype=np.float64)
    if lmat.ndim != 2 or rmat.ndim != 2 or lmat.shape != rmat.shape[::-1]:
        raise FormrepError(
            f"need shapes (p, q) and (q, p), got {lmat.shape} and {rmat.shape}"
        )
    prod_small = lmat @ rmat
    prod_large = rmat @ lmat
    scale = max(
        float(np.linalg.norm(prod_small, 2)) if prod_small.size else 0.0,
        float(np.linalg.norm(prod_large, 2)) if prod_large.size else 0.0,
    )
    tau = kernel_tol(max(lmat.shape), scale, scale=NONNORMAL_TOL_SCALE)
    eig_small = np.linalg.eigvals(prod_small) if prod_small.size else np.array([])
    eig_large = np.linalg.eigvals(prod_large) if prod_large.size else np.array([])
    nz_small = eig_small[np.abs(eig_small) > tau]
    nz_large = eig_large[np.abs(eig_large) > tau]
    if nz_small.size == 0 and nz_large.size == 0:
        return 0.0
    if nz_small.size == 0:
        return float(np.max(np.abs(nz_large)))
    if nz_large.size == 0:
        return float(np.max(np.abs(nz_small)))
    dist = np.abs(nz_small[:, None] - nz_large[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def family_diagnostics(
    generator: Callable[[int], tuple[np.ndarray, np.ndarray]], sizes: Iterable[int]
) -> FamilyDiagnostics:
    """Collect growth diagnostics for a truncation family.

    For each family index the driver exhaustively sweeps every diagonal splitting for a
    gap certificate, force-builds the associated matrix, and records the stability-suite
    norms, the operator norm, the weight condition number (a singular weight raises
    ``SingularMatrixError``) and the conjugated-coefficient norm (the finite-dimensional
    proxy for coefficient-preserves-domain).  The suite takes the sign of zero as ``+1``.
    """
    sizes = list(sizes)
    for idx in sizes:
        if idx > MAX_FAMILY_INDEX:
            raise EnumerationBoundError(
                f"family index {idx} exceeds the exhaustive-sweep bound "
                f"{MAX_FAMILY_INDEX}"
            )
        if idx < 1:
            raise FormrepError(f"family index must be >= 1, got {idx}")

    sequences: dict[str, list[float]] = {
        "operator": [],
        "weight_condition": [],
        "weighted_abs": [],
        "weighted_abs_inverse": [],
        "sign_conjugate": [],
        "coefficient_conjugate": [],
    }
    outcomes: list[bool] = []
    for idx in sizes:
        mat_a, mat_h = generator(idx)
        sym_a = symmetrize(mat_a, "family weight")
        sym_h = symmetrize(mat_h, "family coefficient")
        n = sym_a.shape[0]
        weight = _clamped_weight(sym_a)
        if weight.eigenvalues[0] <= 0.0:
            raise SingularMatrixError(f"family weight at size {idx} is singular")

        any_certified = False
        for inv in enumerate_diagonal_involutions(n):
            try:
                cert = check_gap_hypothesis(sym_a, sym_h, inv)
            except FormrepError:
                continue
            if cert.satisfied:
                any_certified = True
                break
        outcomes.append(any_certified)

        h_frame, vecs, w = _in_frame(weight, sym_h), weight.eigenvectors, weight.eigenvalues
        operator = _hermitian(vecs @ (np.sqrt(w)[:, None] * h_frame * np.sqrt(w)) @ vecs.conj().T)
        decomp = _eigh(operator)
        report = _stability(weight, operator, decomp, 1)
        # (A+I)^(1/2) H (A+I)^(-1/2) in the eigenbasis
        conj_norm = _gram_norm(np.sqrt(1.0 + w)[:, None] * h_frame / np.sqrt(1.0 + w))

        sequences["operator"].append(decomp.source_norm)
        sequences["weight_condition"].append(weight.source_norm / float(weight.eigenvalues[0]))
        sequences["weighted_abs"].append(report.norm_weighted_abs)
        sequences["weighted_abs_inverse"].append(report.norm_weighted_abs_inverse)
        sequences["sign_conjugate"].append(report.norm_sign_conjugate)
        sequences["coefficient_conjugate"].append(conj_norm)

    return FamilyDiagnostics(
        truncation_sizes=sizes,
        norm_sequences=sequences,
        gap_search_outcomes=outcomes,
    )
