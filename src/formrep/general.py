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
from typing import Any, Callable

import numpy as np

from .errors import (
    CommutationError,
    HypothesisRefusedError,
    InternalCheckError,
    MatrixValidationError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
)
from .involution import COMMUTATION_TOL, _EPS_FLOOR, Involution, _block_decompose
from .spectral import (
    SpectralDecomposition,
    _eigh,
    _hermitian,
    _in_frame,
    _min_abs,
    _norm2_above,
    _signum,
    _sym_norm,
    apply_fn,
    kernel_tol,
    symmetrize,
)

logger = logging.getLogger(__name__)

#: All canonical basis pairs join the random probe pairs up to this n.
CANONICAL_PROBE_LIMIT = 16
#: Most random probe pairs drawn, ``min(2n, 256)``: no probe array is wider than n x 288.
_PROBE_PAIRS = 256


@dataclass(frozen=True)
class GapCertificate:
    """Outcome of the spectral-gap check for a triple ``(A, H, J)``.

    ``lambda_min_plus`` / ``lambda_max_minus`` are the extreme eigenvalues
    of the plus/minus blocks of ``H`` (uncapped, for diagnostics).  When
    both margins ``lambda_min_plus`` and ``-lambda_max_minus`` exceed
    ``kernel_tol`` of their block (its dimension and largest ``|eigenvalue|``),
    so that rounding cannot decide their sign, the certificate is satisfied and
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

    ``gap_radius`` is ``1 / ||H_shifted^-1||``, the certified radius of the
    resolvent interval of the shifted operator ``operator + J``; the shifted
    coefficient ``H_shifted`` is ``shifted_coefficient(A, H, J)[1]``.

    For certified results (``certificate.satisfied``),
    ``certificate.alpha_star <= gap_radius``: both block margins of the
    shifted coefficient stay at least ``alpha_star`` and off-diagonal
    coupling cannot move spectrum into the gap.  When the
    weight has a nontrivial kernel, ``gap_radius <= 1``: a unit ``x`` in
    ``ker A`` has ``shifted_coefficient @ x = J x``, of norm 1.

    ``weight`` (clamped) and ``decomposition`` are the decompositions of the
    weight and of ``operator`` that the result was built from.
    """

    operator: np.ndarray
    gap_radius: float
    first_rep_residual: float
    second_rep_residual: float
    certificate: GapCertificate
    weight: SpectralDecomposition
    decomposition: SpectralDecomposition


def _clamped_weight(sym: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a validated weight with small negatives clamped to 0.

    Eigenvalues in ``[-tau, 0)`` are numerical noise and are set to zero
    (the clamp magnitude is logged); anything below ``-tau`` is rejected.
    """
    decomp = _eigh(sym)
    tau = kernel_tol(decomp.n, decomp.source_norm)
    lowest = float(decomp.eigenvalues[0])
    if lowest < -tau:
        raise NotPositiveSemidefiniteError(
            f"weight matrix has eigenvalue {lowest:.6e} below -{tau:.3e}"
        )
    if lowest < 0.0:
        logger.debug("clamping weight eigenvalues by %.3e", -lowest)
    clamped = np.where(decomp.eigenvalues < 0.0, 0.0, decomp.eigenvalues)
    return SpectralDecomposition(clamped, decomp.eigenvectors, decomp.source_norm)


def weight_sqrt(mat: np.ndarray) -> np.ndarray:
    """``A^(1/2)`` for a PSD weight, after clamping."""
    return apply_fn(_clamped_weight(symmetrize(mat, "weight")), np.sqrt)


def default_probes(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded probe pairs as the columns of ``(X, Y)``: ``min(2n, 256)`` random unit
    Gaussians (pair ``k`` from draws ``2k`` and ``2k + 1`` of ``n`` normals each), plus all
    canonical basis pairs ``(e_i, e_j)`` when ``n <= CANONICAL_PROBE_LIMIT``."""
    draws = np.random.default_rng(seed).standard_normal((min(2 * n, _PROBE_PAIRS), 2, n))
    draws /= np.sqrt(np.einsum("ijk,ijk->ij", draws, draws))[..., None]  # no squared copy
    xs, ys = draws[:, 0].T, draws[:, 1].T
    if n <= CANONICAL_PROBE_LIMIT:
        eye = np.eye(n)
        xs, ys = np.hstack([xs, np.repeat(eye, n, axis=1)]), np.hstack([ys, np.tile(eye, n)])
    return xs, ys


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
) -> tuple[GapCertificate, np.ndarray, SpectralDecomposition, np.ndarray, np.ndarray]:
    """``check_gap_hypothesis``, also returning the symmetrized ``H``, the clamped
    decomposition ``W diag(w) W*`` of ``A``, the eigenvalues of ``H`` and ``J_W = W* J W``;
    ``[J, A]`` is settled Frobenius-first as ``W* [J, A] W = J_W o (w_j - w_i)``."""
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
    bound = COMMUTATION_TOL * max(weight.source_norm, _EPS_FLOOR)
    j_frame, w = _in_frame(weight, inv.matrix), weight.eigenvalues
    commutator = _norm2_above(j_frame * (w - w[:, None]), bound)
    if commutator is not None:
        raise CommutationError(
            f"involution does not commute with the weight: ||[J, A]|| = {commutator:.3e}"
        )
    blocks = _block_decompose(sym_h, inv)
    plus_vals = np.linalg.eigvalsh(blocks.plus_block)
    minus_vals = np.linalg.eigvalsh(blocks.minus_block)
    lambda_min_plus, lambda_max_minus = float(plus_vals[0]), float(minus_vals[-1])
    refusal = _margin_refusal("plus", plus_vals, 1) or _margin_refusal("minus", minus_vals, -1)
    alpha_star = float(min(1.0, lambda_min_plus, -lambda_max_minus))
    certificate = GapCertificate(
        lambda_min_plus=lambda_min_plus,
        lambda_max_minus=lambda_max_minus,
        satisfied=refusal is None,
        alpha_star=alpha_star if refusal is None else None,
        refusal=refusal,
    )
    return certificate, sym_h, weight, h_vals, j_frame


def _margin_refusal(block: str, vals: np.ndarray, sign: int) -> str | None:
    """Why an H-block with eigenvalues ``vals`` does not certify, or None when its margin,
    the least of ``sign * vals``, exceeds ``kernel_tol`` of the block."""
    margin = float(np.min(sign * vals))
    tau = kernel_tol(len(vals), float(np.max(np.abs(vals))))
    if margin > tau:
        return None
    side, extreme = ("positive", "min") if sign > 0 else ("negative", "max")
    detail = f"{extreme} eigenvalue {sign * margin:.6e}"
    if margin >= -tau:
        return f"{block} block margin is within rounding of zero: {detail}, tolerance {tau:.3e}"
    return f"{block} block is not uniformly {side}: {detail}"


def shifted_coefficient(
    mat_a: np.ndarray, mat_h: np.ndarray, inv: Involution
) -> tuple[np.ndarray, np.ndarray]:
    """Compressed and shifted coefficients of the form.

    With ``R = A^(1/2) (A + I)^(-1/2)`` (spectral mapping of the weight),
    the compressed coefficient is ``R H R`` and the shifted coefficient is
    ``R H R + (A + I)^(-1) J``.  The shifted coefficient is the bounded
    middle factor of ``B + J`` with respect to ``(A + I)^(1/2)``.
    """
    weight = _clamped_weight(symmetrize(mat_a, "weight"))
    contraction = apply_fn(weight, lambda lam: np.sqrt(lam / (1.0 + lam)))
    resolvent_at_one = apply_fn(weight, lambda lam: 1.0 / (1.0 + lam))
    compressed = contraction @ symmetrize(mat_h, "coefficient") @ contraction
    return _hermitian(compressed), _hermitian(compressed + resolvent_at_one @ inv.matrix)


def _pairing(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Inner products ``<left_j, right_j>`` of matching columns (``vdot`` for vectors)."""
    return np.einsum("i...,i...->...", np.conj(left), right)


def _probe_residuals(
    probes: tuple[np.ndarray, np.ndarray],
    scale: float,
    form: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *sides: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> list[float]:
    """Largest ``|form(x, y) - side(x, y)| / (||x|| ||y|| scale)`` over the probes, per side.

    The pairs are the columns of ``probes = (X, Y)``; ``form`` and each side map such
    columns to the value of every column pair in them."""
    xs, ys = probes
    if xs.ndim != 2 or xs.shape[1] == 0:
        raise MatrixValidationError("at least one probe pair is needed")
    denom = np.linalg.norm(xs, axis=0) * np.linalg.norm(ys, axis=0) * scale
    if not np.all(denom > 0.0):
        raise MatrixValidationError("probe vectors must be nonzero")
    target = form(xs, ys)
    return [float(np.max(np.abs(target - side(xs, ys)) / denom)) for side in sides]


def _represented_side(decomp: SpectralDecomposition):
    """``<|B|^(1/2) x, sign(B) |B|^(1/2) y> = <V* x, sign(lam)|lam| V* y>``, sign 0 in ker B."""
    vecs_h = decomp.eigenvectors.conj().T
    weights = _signum(decomp, 0.0)(decomp.eigenvalues) * np.abs(decomp.eigenvalues)
    return lambda xs, ys: _pairing(vecs_h @ xs, weights[:, None] * (vecs_h @ ys))


def _standalone(
    mat_a: np.ndarray,
    mat_h: np.ndarray,
    probes: list[tuple[np.ndarray, np.ndarray]] | None,
    seed: int,
    side: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> float:
    """Residual of ``side`` against the form, computed from the raw matrices."""
    weight = _clamped_weight(symmetrize(mat_a, "weight"))
    sym_h = symmetrize(mat_h, "coefficient")
    root = apply_fn(weight, np.sqrt)
    if probes is not None:  # an empty list stacks to 1-d arrays, which are rejected
        probes = (np.array([x for x, _ in probes]).T, np.array([y for _, y in probes]).T)
    return _probe_residuals(
        default_probes(weight.n, seed) if probes is None else probes,
        (1.0 + weight.source_norm) * max(_sym_norm(sym_h), 1e-300),
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

    Compares ``<A^(1/2)x, H A^(1/2)y>`` with ``<|B|^(1/2) x, sign(B) |B|^(1/2) y>``,
    read in the eigenbasis of the operator, where ``sign`` maps eigenvalues
    inside the kernel threshold to 0.
    """
    sym_b = symmetrize(operator, "operator")
    return _standalone(mat_a, mat_h, probes, seed, _represented_side(_eigh(sym_b)))


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
    routes agree, and measures the representation residuals.  All of it is done in the frame
    of ``A = W diag(w) W*``, with ``r = w^(1/2)``, ``g = (1 + w)^(1/2)``: ``B_W = r H_W r`` and
    ``H_shifted,W = B_W / (g g*) + J_W / g^2``; only ``B`` returns to the original basis.

    Parameters
    ----------
    force : bool
        Proceed even when the gap certificate is refused.  The result's
        ``certificate.satisfied`` is then False; no gap guarantee applies.

    Raises
    ------
    HypothesisRefusedError
        If the certificate is refused and ``force`` is False.
    InternalCheckError
        If the two assembly routes disagree beyond ``1e-10 * scale``.
    """
    certificate, sym_h, weight, h_vals, j_frame = _certify(mat_a, mat_h, inv)
    if not certificate.satisfied and not force:
        raise HypothesisRefusedError(
            f"spectral-gap condition refused: {certificate.refusal}", certificate
        )
    h_frame = _in_frame(weight, sym_h)
    del sym_h  # each n x n matrix is dropped after its last use
    root, grow = np.sqrt(weight.eigenvalues[:, None]), np.sqrt(1.0 + weight.eigenvalues[:, None])
    b_frame = root * h_frame * root.T
    shifted = _hermitian(b_frame / (grow * grow.T) + j_frame / grow**2)
    scale = (1.0 + weight.source_norm) * max(float(np.max(np.abs(h_vals))), 1e-300)
    route_gap = _norm2_above(grow * shifted * grow.T - j_frame - b_frame, 1e-10 * scale)
    if route_gap is not None:
        raise InternalCheckError(
            f"assembly routes disagree: ||(B~ - J) - B|| = {route_gap:.3e} "
            f"exceeds {1e-10 * scale:.3e}"
        )
    gap_radius = _min_abs(shifted)
    del shifted, j_frame
    to_frame = weight.eigenvectors.conj().T
    operator = _hermitian(weight.eigenvectors @ b_frame @ to_frame)
    del b_frame
    return _probed(
        operator, _eigh(operator),
        lambda xs, ys: _pairing(root * (to_frame @ xs), h_frame @ (root * (to_frame @ ys))),
        scale, probe_seed, gap_radius=gap_radius, certificate=certificate, weight=weight,
    )


def _probed(
    operator: np.ndarray,
    decomp: SpectralDecomposition,
    form: Callable[[np.ndarray, np.ndarray], np.ndarray],
    scale: float,
    probe_seed: int,
    **fields: Any,
) -> RepresentationResult:
    """The result for an assembled ``operator`` and its decomposition ``decomp``: both
    representation residuals against ``form`` over ``default_probes(n, probe_seed)``, divided by
    ``scale``.  ``fields`` give the rest: ``gap_radius``, ``certificate`` and ``weight``."""
    first, second = _probe_residuals(
        default_probes(len(operator), probe_seed), scale, form,
        lambda xs, ys: _pairing(xs, operator @ ys), _represented_side(decomp),
    )
    return RepresentationResult(
        operator=operator, first_rep_residual=first, second_rep_residual=second,
        decomposition=decomp, **fields,
    )


def gap_certificate_check(result: RepresentationResult, inv: Involution) -> float:
    """Margin of the certified resolvent interval of the shifted operator.

    Returns ``min |eig(B + J)| - gap_radius``; the construction guarantees
    this is nonnegative up to rounding for certified results.
    """
    return _min_abs(result.operator + inv.matrix) - result.gap_radius
