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

from .errors import EnumerationBoundError, InternalCheckError, FormrepError
from .general import _clamped_weight, check_gap_hypothesis
from .involution import Involution, enumerate_diagonal_involutions
from .spectral import (
    SpectralDecomposition,
    _signum,
    apply_fn,
    eig_sym,
    kernel_tol,
    min_abs_eig,
    op_norm,
    symmetrize,
)

#: Relative tolerance for the consistency flags of the equivalence suite.
FLAG_TOL = 1e-8

#: Largest family index admitted to the exhaustive involution sweep.
MAX_FAMILY_INDEX = 6

_CONDITION_KEYS = ("i", "ii", "ii'", "iii", "iii'", "iv", "v")


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

    def all_conditions_agree(self) -> bool:
        values = [self.conditions[key] for key in _CONDITION_KEYS]
        return all(values) or not any(values)


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
    s = _validate_zero_sign(zero_sign)
    decomp = eig_sym(mat)
    return apply_fn(decomp, _signum(decomp, float(s)))


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
    return _stability(_clamped_weight(sym_a), sym_b, eig_sym(sym_b), s)


def _stability(
    weight: SpectralDecomposition, sym_b: np.ndarray, decomp: SpectralDecomposition, s: int
) -> StabilityReport:
    """``stability_suite`` on the clamped decomposition of the weight and the
    decomposition ``decomp`` of the operator ``sym_b``."""
    eye = np.eye(sym_b.shape[0])
    grow = apply_fn(weight, lambda lam: np.sqrt(1.0 + lam))
    shrink = apply_fn(weight, lambda lam: 1.0 / np.sqrt(1.0 + lam))
    signed = _signum(decomp, float(s))
    sign_mat = apply_fn(decomp, signed)
    shifted_gap = min_abs_eig(sym_b + sign_mat)
    if shifted_gap < 1.0 - 1e-10:
        raise InternalCheckError(
            f"shifted matrix lost its unit gap: min |eig(B + sgn B)| = {shifted_gap!r}"
        )
    abs_shifted = apply_fn(decomp, lambda lam: abs(lam + signed(lam)))
    inv_shifted = apply_fn(decomp, lambda lam: 1.0 / (lam + signed(lam)))
    inv_abs_shifted = apply_fn(decomp, lambda lam: 1.0 / abs(lam + signed(lam)))

    weighted_abs = shrink @ abs_shifted @ shrink
    weighted_abs_inverse = grow @ inv_abs_shifted @ grow
    sign_conjugate = grow @ sign_mat @ shrink
    shifted_inverse_pair = grow @ inv_shifted @ grow
    shifted_forward_pair = shrink @ (sym_b + sign_mat) @ shrink

    def norm(mat: np.ndarray) -> float:
        return float(np.linalg.norm(mat, 2))

    def inverse_defect(first: np.ndarray, second: np.ndarray) -> float:
        return max(norm(first @ second - eye), norm(second @ first - eye))

    norm_x = norm(weighted_abs)
    norm_y = norm(weighted_abs_inverse)
    norm_k = norm(sign_conjugate)
    norm_xt = norm(shifted_inverse_pair)

    involution_residual = norm(sign_conjugate @ sign_conjugate - eye)
    inverse_pair_residual = inverse_defect(shifted_inverse_pair, shifted_forward_pair)
    xy_residual = inverse_defect(weighted_abs, weighted_abs_inverse)
    chain_residual = norm(sign_conjugate - shifted_inverse_pair @ weighted_abs)

    sign_gap = sign_mat - apply_fn(decomp, _signum(decomp, 0.0))
    sgn_invariance_residual = max(
        norm(sign_gap @ sym_b), norm(sign_gap @ apply_fn(decomp, abs))
    )

    sym_defect_x = norm(weighted_abs - weighted_abs.conj().T)
    sym_defect_y = norm(weighted_abs_inverse - weighted_abs_inverse.conj().T)

    flag_x = bool(
        np.isfinite(weighted_abs).all() and sym_defect_x <= FLAG_TOL * max(1.0, norm_x)
    )
    flag_y = bool(
        np.isfinite(weighted_abs_inverse).all()
        and sym_defect_y <= FLAG_TOL * max(1.0, norm_y)
    )
    conditions = {
        "i": bool(
            xy_residual <= FLAG_TOL * max(1.0, norm_x * norm_y)
            and inverse_pair_residual <= FLAG_TOL * max(1.0, norm_xt * norm_y)
        ),
        "ii": flag_x,
        "iii": flag_x,
        "ii'": flag_y,
        "iii'": flag_y,
        "iv": bool(involution_residual <= FLAG_TOL * max(1.0, norm_k**2)),
        "v": bool(
            np.isfinite(sign_conjugate).all()
            and chain_residual <= FLAG_TOL * max(1.0, norm_xt * norm_x)
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


def sufficient_definite(
    mat_a: np.ndarray, mat_h: np.ndarray, operator: np.ndarray
) -> bool:
    """Definiteness criterion for domain stability.

    A strictly positive coefficient forces the associated matrix to be PSD,
    so its unitary sign with ``zero_sign=+1`` is the identity (and the
    mirror statement for strictly negative coefficients).  Returns False
    when the coefficient is indefinite and the criterion does not apply.
    """
    sym_h = symmetrize(mat_h, "coefficient")
    sym_b = symmetrize(operator, "operator")
    vals = np.linalg.eigvalsh(sym_h)
    tau = kernel_tol(sym_h.shape[0], float(np.max(np.abs(vals), initial=0.0)))
    n = sym_b.shape[0]
    if vals[0] > tau:
        defect = float(np.linalg.norm(sgn_matrix(sym_b, 1) - np.eye(n), 2))
        if defect > 1e-10:
            raise InternalCheckError(
                f"positive coefficient but sign is not the identity: defect {defect:.3e}"
            )
        return True
    if vals[-1] < -tau:
        defect = float(np.linalg.norm(sgn_matrix(sym_b, -1) + np.eye(n), 2))
        if defect > 1e-10:
            raise InternalCheckError(
                f"negative coefficient but sign is not minus identity: defect {defect:.3e}"
            )
        return True
    return False


def sufficient_semibounded(
    mat_a: np.ndarray,
    shifted_coeff: np.ndarray,
    operator: np.ndarray,
    inv: Involution,
    max_doublings: int = 60,
) -> tuple[bool, float]:
    """Semiboundedness criterion: search for a certifying shift constant.

    Doubling from ``||B|| + 1``, the search accepts the first constant
    ``c`` for which the shifted coefficient plus ``c (A + I)^(-1)`` is
    strictly positive and ``-1/c`` stays clear of the spectrum of the
    inverse shifted matrix.  Returns ``(True, c)`` on success, otherwise
    ``(False, last c tried)``.
    """
    sym_a = symmetrize(mat_a, "weight")
    sym_coeff = symmetrize(shifted_coeff, "shifted coefficient")
    sym_b = symmetrize(operator, "operator")
    n = sym_a.shape[0]
    resolvent_at_one = apply_fn(_clamped_weight(sym_a), lambda lam: 1.0 / (1.0 + lam))
    shifted_vals = np.linalg.eigvalsh(sym_b + inv.matrix)
    shifted_norm = float(np.max(np.abs(shifted_vals), initial=0.0))
    tau_inverse = kernel_tol(n, 1.0 / max(min(np.abs(shifted_vals)), 1e-300))
    invertible = bool(min(np.abs(shifted_vals)) > kernel_tol(n, shifted_norm))

    c = op_norm(sym_b) + 1.0
    for _ in range(max_doublings):
        candidate_vals = np.linalg.eigvalsh(sym_coeff + c * resolvent_at_one)
        tau_pos = kernel_tol(n, float(np.max(np.abs(candidate_vals))))
        spectrum_clear = invertible and bool(
            np.min(np.abs(1.0 / shifted_vals - (-1.0 / c))) > tau_inverse
        )
        if candidate_vals[0] > tau_pos and spectrum_clear:
            return True, float(c)
        c *= 2.0
    return False, float(c / 2.0)


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
    generator: Callable[[int], tuple[np.ndarray, np.ndarray]],
    sizes: Iterable[int],
    zero_sign: int = 1,
) -> FamilyDiagnostics:
    """Collect growth diagnostics for a truncation family.

    For each family index the driver exhaustively sweeps every diagonal
    splitting for a gap certificate, force-builds the associated matrix,
    and records the stability-suite norms, the operator norm, the weight
    condition number, and the conjugated-coefficient norm (the
    finite-dimensional proxy for coefficient-preserves-domain).
    """
    s = _validate_zero_sign(zero_sign)
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

        weight = _clamped_weight(sym_a)
        root = apply_fn(weight, np.sqrt)
        operator = symmetrize(root @ sym_h @ root, "family operator")
        decomp = eig_sym(operator)
        report = _stability(weight, operator, decomp, s)

        lowest = float(weight.eigenvalues[0])
        cond = weight.source_norm / lowest if lowest > 0 else float("inf")
        grow = apply_fn(weight, lambda lam: np.sqrt(1.0 + lam))
        shrink = apply_fn(weight, lambda lam: 1.0 / np.sqrt(1.0 + lam))
        conj_norm = float(np.linalg.norm(grow @ sym_h @ shrink, 2))

        sequences["operator"].append(decomp.source_norm)
        sequences["weight_condition"].append(cond)
        sequences["weighted_abs"].append(report.norm_weighted_abs)
        sequences["weighted_abs_inverse"].append(report.norm_weighted_abs_inverse)
        sequences["sign_conjugate"].append(report.norm_sign_conjugate)
        sequences["coefficient_conjugate"].append(conj_norm)

    return FamilyDiagnostics(
        truncation_sizes=sizes,
        norm_sequences=sequences,
        gap_search_outcomes=outcomes,
    )
