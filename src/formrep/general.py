"""Construction of the self-adjoint matrix associated with a weighted form.

The form under study is ``b[x, y] = <A^(1/2) x, H A^(1/2) y>`` with a
positive-semidefinite weight ``A`` and a bounded, boundedly invertible,
self-adjoint coefficient ``H``.  When a self-adjoint involution ``J``
commuting with ``A`` makes ``H`` uniformly positive on the plus half-space
and uniformly negative on the minus half-space (the spectral-gap
condition), the matrix ``B = A^(1/2) H A^(1/2)`` represents the form, and
the shifted matrix ``B + J`` is invertible with a certified gap around
zero.

The pipeline here verifies the gap condition, builds the shifted
coefficient pair, assembles ``B``, and measures the first/second
representation residuals on probe vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CommutationError,
    HypothesisRefusedError,
    InternalCheckError,
    MatrixValidationError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
)
from .involution import Involution, block_decompose, commutes
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

logger = logging.getLogger(__name__)

#: Number of extra random probe pairs is 2*n; canonical pairs added up to this n.
CANONICAL_PROBE_LIMIT = 16


@dataclass(frozen=True)
class GapCertificate:
    """Outcome of the spectral-gap check for a triple ``(A, H, J)``.

    ``lambda_min_plus`` / ``lambda_max_minus`` are the extreme eigenvalues
    of the plus/minus blocks of ``H`` (uncapped, for diagnostics).  When
    both margins are positive the certificate is satisfied and
    ``alpha_star = min(1, lambda_min_plus, -lambda_max_minus)``; otherwise
    ``alpha_star`` is None and ``refusal`` names the failed inequality.

    A satisfied certificate bounds the gap radius of the assembled result
    from below, ``alpha_star <= gap_radius``: the shifted coefficient's
    plus block is at least ``alpha_star A/(1+A) + 1/(1+A) >= alpha_star``
    (as ``alpha_star <= 1``), its minus block at most ``-alpha_star``.
    """

    lambda_min_plus: float
    lambda_max_minus: float
    satisfied: bool
    alpha_star: float | None
    refusal: str | None = None


@dataclass(frozen=True)
class RepresentationResult:
    """Bundle produced by the association pipeline.

    ``shifted_operator`` is ``operator + J`` exactly by construction; the
    alternative route through the shifted coefficient is verified against
    it.  ``gap_radius`` is ``1 / ||H_shifted^-1||``, the certified radius of
    the resolvent interval of the shifted operator.

    For certified results ``certificate.alpha_star <= gap_radius``: both
    block margins of the shifted coefficient stay at least ``alpha_star``
    and off-diagonal coupling cannot move spectrum into the gap.  When the
    weight has a nontrivial kernel, ``gap_radius <= 1``: a unit ``x`` in
    ``ker A`` has ``shifted_coefficient @ x = J x``, of norm 1.

    ``weight`` (clamped) and ``decomposition`` are the decompositions of the
    weight and of ``operator`` that the result was built from.
    """

    operator: np.ndarray
    shifted_operator: np.ndarray
    compressed_coefficient: np.ndarray
    shifted_coefficient: np.ndarray
    gap_radius: float
    first_rep_residual: float
    second_rep_residual: float
    certificate: GapCertificate
    certified: bool
    weight: SpectralDecomposition
    decomposition: SpectralDecomposition


def _clamped_weight(mat: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of the weight with small negatives clamped to 0.

    Eigenvalues in ``[-tau, 0)`` are numerical noise and are set to zero
    (the clamp magnitude is logged); anything below ``-tau`` is rejected.
    """
    decomp = eig_sym(mat)
    tau = kernel_tol(decomp.n, decomp.source_norm)
    lowest = float(decomp.eigenvalues[0])
    if lowest < -tau:
        raise NotPositiveSemidefiniteError(
            f"weight matrix has eigenvalue {lowest:.6e} below -{tau:.3e}"
        )
    if lowest < 0.0:
        logger.debug("clamping weight eigenvalues by %.3e", -lowest)
    clamped = np.where(decomp.eigenvalues < 0.0, 0.0, decomp.eigenvalues)
    return SpectralDecomposition(
        eigenvalues=clamped,
        eigenvectors=decomp.eigenvectors,
        source_norm=decomp.source_norm,
    )


def weight_sqrt(mat: np.ndarray) -> np.ndarray:
    """``A^(1/2)`` for a PSD weight, after clamping."""
    return apply_fn(_clamped_weight(mat), np.sqrt)


def default_probes(
    n: int, seed: int = 0, canonical_limit: int = CANONICAL_PROBE_LIMIT
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded probe pairs: ``2n`` random unit Gaussians, plus all canonical
    basis pairs when ``n <= canonical_limit``."""
    rng = np.random.default_rng(seed)
    probes: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(2 * n):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        probes.append((x / np.linalg.norm(x), y / np.linalg.norm(y)))
    if n <= canonical_limit:
        eye = np.eye(n)
        probes.extend(
            (eye[:, i], eye[:, j]) for i in range(n) for j in range(n)
        )
    return probes


def check_gap_hypothesis(
    mat_a: np.ndarray, mat_h: np.ndarray, inv: Involution
) -> GapCertificate:
    """Verify the spectral-gap condition for ``(A, H, J)``.

    Preconditions checked first, each with its own error: the weight must
    be PSD up to clamping, the coefficient must be invertible, and the
    involution must commute with the weight.  The certificate itself then
    records the block margins of ``H``.

    Raises
    ------
    NotPositiveSemidefiniteError, SingularMatrixError, CommutationError
    """
    return _certify(mat_a, mat_h, inv)[0]


def _certify(
    mat_a: np.ndarray, mat_h: np.ndarray, inv: Involution
) -> tuple[GapCertificate, np.ndarray, np.ndarray, SpectralDecomposition, np.ndarray]:
    """``check_gap_hypothesis``, also returning the symmetrized ``A`` and ``H``,
    the clamped decomposition of ``A`` and the eigenvalues of ``H``."""
    sym_a = symmetrize(mat_a, "weight")
    sym_h = symmetrize(mat_h, "coefficient")
    if sym_a.shape[0] != sym_h.shape[0] or sym_a.shape[0] != inv.n:
        raise MatrixValidationError(
            f"dimension mismatch: weight {sym_a.shape[0]}, coefficient "
            f"{sym_h.shape[0]}, involution {inv.n}"
        )
    weight = _clamped_weight(sym_a)  # raises if genuinely indefinite
    h_vals = np.linalg.eigvalsh(sym_h)
    h_gap = float(np.min(np.abs(h_vals)))
    if h_gap <= kernel_tol(sym_h.shape[0], float(np.max(np.abs(h_vals)))):
        raise SingularMatrixError(
            f"coefficient matrix is singular: min |eigenvalue| = {h_gap:.3e}"
        )
    ok, commutator = commutes(inv, sym_a)
    if not ok:
        raise CommutationError(
            f"involution does not commute with the weight: ||[J, A]|| = {commutator:.3e}"
        )
    blocks = block_decompose(sym_h, inv)
    lambda_min_plus = float(np.linalg.eigvalsh(blocks.plus_block)[0])
    lambda_max_minus = float(np.linalg.eigvalsh(blocks.minus_block)[-1])
    refusal = None
    if lambda_min_plus <= 0.0:
        refusal = f"plus block is not uniformly positive: min eigenvalue {lambda_min_plus:.6e}"
    elif lambda_max_minus >= 0.0:
        refusal = f"minus block is not uniformly negative: max eigenvalue {lambda_max_minus:.6e}"
    alpha_star = float(min(1.0, lambda_min_plus, -lambda_max_minus))
    certificate = GapCertificate(
        lambda_min_plus=lambda_min_plus,
        lambda_max_minus=lambda_max_minus,
        satisfied=refusal is None,
        alpha_star=alpha_star if refusal is None else None,
        refusal=refusal,
    )
    return certificate, sym_a, sym_h, weight, h_vals


def shifted_coefficient(
    mat_a: np.ndarray, mat_h: np.ndarray, inv: Involution
) -> tuple[np.ndarray, np.ndarray]:
    """Compressed and shifted coefficients of the form.

    With ``R = A^(1/2) (A + I)^(-1/2)`` (spectral mapping of the weight),
    the compressed coefficient is ``R H R`` and the shifted coefficient is
    ``R H R + (A + I)^(-1) J``.  The shifted coefficient is the bounded
    middle factor of ``B + J`` with respect to ``(A + I)^(1/2)``.
    """
    return _shifted_pair(_clamped_weight(mat_a), symmetrize(mat_h, "coefficient"), inv)


def _shifted_pair(
    weight: SpectralDecomposition, sym_h: np.ndarray, inv: Involution
) -> tuple[np.ndarray, np.ndarray]:
    contraction = apply_fn(weight, lambda lam: np.sqrt(lam / (1.0 + lam)))
    resolvent_at_one = apply_fn(weight, lambda lam: 1.0 / (1.0 + lam))
    compressed = contraction @ sym_h @ contraction
    shifted = compressed + resolvent_at_one @ inv.matrix
    return symmetrize(compressed, "compressed coefficient"), symmetrize(
        shifted, "shifted coefficient"
    )


def _pairing(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Inner products ``<left_j, right_j>`` of matching columns (``vdot`` for vectors)."""
    return np.einsum("i...,i...->...", np.conj(left), right)


def _probe_residuals(
    probes: list[tuple[np.ndarray, np.ndarray]],
    scale: float,
    form: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *sides: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> list[float]:
    """Largest ``|form(x, y) - side(x, y)| / (||x|| ||y|| scale)`` over the probes, per side.

    The pairs are stacked as the columns of ``X`` and ``Y``; ``form`` and each
    side map ``(X, Y)`` to the value of every column pair."""
    if not probes:
        raise MatrixValidationError("at least one probe pair is needed")
    xs = np.column_stack([x for x, _ in probes])
    ys = np.column_stack([y for _, y in probes])
    norm_x = np.linalg.norm(xs, axis=0)
    norm_y = np.linalg.norm(ys, axis=0)
    if not (np.all(norm_x > 0.0) and np.all(norm_y > 0.0)):
        raise MatrixValidationError("probe vectors must be nonzero")
    target = form(xs, ys)
    denom = norm_x * norm_y * scale
    return [float(np.max(np.abs(target - side(xs, ys)) / denom)) for side in sides]


def _represented_side(decomp: SpectralDecomposition):
    """``<|B|^(1/2) x, sign(B) |B|^(1/2) y>`` on stacked probes, ``sign`` 0 in the kernel."""
    abs_root = apply_fn(decomp, lambda lam: np.sqrt(abs(lam)))
    zero_sign = apply_fn(decomp, _signum(decomp, 0.0))
    return lambda xs, ys: _pairing(abs_root @ xs, zero_sign @ (abs_root @ ys))


def _standalone(
    mat_a: np.ndarray,
    mat_h: np.ndarray,
    probes: list[tuple[np.ndarray, np.ndarray]] | None,
    seed: int,
    side: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> float:
    """Residual of ``side`` against the form, computed from the raw matrices."""
    sym_a = symmetrize(mat_a, "weight")
    sym_h = symmetrize(mat_h, "coefficient")
    weight = _clamped_weight(sym_a)
    root = apply_fn(weight, np.sqrt)
    return _probe_residuals(
        default_probes(sym_a.shape[0], seed=seed) if probes is None else probes,
        (1.0 + weight.source_norm) * max(op_norm(sym_h), 1e-300),
        lambda xs, ys: _pairing(root @ xs, sym_h @ (root @ ys)),
        side,
    )[0]


def first_rep_residual(
    mat_a: np.ndarray,
    mat_h: np.ndarray,
    operator: np.ndarray,
    probes: list[tuple[np.ndarray, np.ndarray]] | None = None,
    seed: int = 0,
) -> float:
    """Largest normalized defect of ``<A^(1/2)x, H A^(1/2)y> = <x, By>``.

    The defect per probe pair is divided by ``||x|| ||y|| * scale`` with
    ``scale = (1 + ||A||) ||H||``.
    """
    sym_b = symmetrize(operator, "operator")
    return _standalone(mat_a, mat_h, probes, seed, lambda xs, ys: _pairing(xs, sym_b @ ys))


def second_rep_residual(
    mat_a: np.ndarray,
    mat_h: np.ndarray,
    operator: np.ndarray,
    probes: list[tuple[np.ndarray, np.ndarray]] | None = None,
    seed: int = 0,
) -> float:
    """Largest normalized defect of the represented-form identity.

    Compares ``<A^(1/2)x, H A^(1/2)y>`` with
    ``<|B|^(1/2) x, sign(B) |B|^(1/2) y>`` where both factors come from the
    spectral mapping of the operator and ``sign`` maps eigenvalues inside
    the kernel threshold to 0.
    """
    sym_b = symmetrize(operator, "operator")
    return _standalone(mat_a, mat_h, probes, seed, _represented_side(eig_sym(sym_b)))


def associate_general(
    mat_a: np.ndarray,
    mat_h: np.ndarray,
    inv: Involution,
    force: bool = False,
    probe_seed: int = 0,
) -> RepresentationResult:
    """Assemble the matrix associated with the weighted form.

    Runs the gap check, builds ``B = A^(1/2) H A^(1/2)`` and the shifted
    coefficient route ``(A+I)^(1/2) H_shifted (A+I)^(1/2)``, verifies the two
    routes agree, and measures the representation residuals.

    Parameters
    ----------
    force : bool
        Proceed even when the gap certificate is refused.  The result is
        then flagged uncertified; no gap guarantee applies.

    Raises
    ------
    HypothesisRefusedError
        If the certificate is refused and ``force`` is False.
    InternalCheckError
        If the two assembly routes disagree beyond ``1e-10 * scale``.
    """
    certificate, sym_a, sym_h, weight, h_vals = _certify(mat_a, mat_h, inv)
    if not certificate.satisfied and not force:
        raise HypothesisRefusedError(
            f"spectral-gap condition refused: {certificate.refusal}"
        )
    root = apply_fn(weight, np.sqrt)
    shifted_root = apply_fn(weight, lambda lam: np.sqrt(1.0 + lam))
    operator = symmetrize(root @ sym_h @ root, "associated matrix")
    compressed, shifted = _shifted_pair(weight, sym_h, inv)
    via_shifted = shifted_root @ shifted @ shifted_root
    scale = (1.0 + weight.source_norm) * max(float(np.max(np.abs(h_vals))), 1e-300)
    route_gap = float(np.linalg.norm(via_shifted - inv.matrix - operator, 2))
    if route_gap > 1e-10 * scale:
        raise InternalCheckError(
            f"assembly routes disagree: ||(B~ - J) - B|| = {route_gap:.3e} "
            f"exceeds {1e-10 * scale:.3e}"
        )
    decomp = eig_sym(operator)
    first, second = _probe_residuals(
        default_probes(sym_a.shape[0], seed=probe_seed),
        scale,
        lambda xs, ys: _pairing(root @ xs, sym_h @ (root @ ys)),
        lambda xs, ys: _pairing(xs, operator @ ys),
        _represented_side(decomp),
    )
    return RepresentationResult(
        operator=operator,
        shifted_operator=operator + inv.matrix,
        compressed_coefficient=compressed,
        shifted_coefficient=shifted,
        gap_radius=min_abs_eig(shifted),
        first_rep_residual=first,
        second_rep_residual=second,
        certificate=certificate,
        certified=certificate.satisfied,
        weight=weight,
        decomposition=decomp,
    )


def gap_certificate_check(result: RepresentationResult, inv: Involution) -> float:
    """Margin of the certified resolvent interval of the shifted operator.

    Returns ``min |eig(B + J)| - gap_radius``; the construction guarantees
    this is nonnegative up to rounding for certified results.
    """
    shifted = result.operator + inv.matrix
    return float(min_abs_eig(shifted) - result.gap_radius)
