"""Off-diagonal perturbations of an indefinite diagonal form.

Here the form is ``b = a[. , J .] + v`` where ``a`` is the nonnegative
form of a block weight ``A = A_plus (+) A_minus``, ``J`` is the canonical
splitting, and the perturbation ``v`` couples the two half-spaces only.
Every such ``v`` is carried by a bounded matrix ``S = [[0, T], [T*, 0]]``
through ``v[x, y] = <S (A+I)^(1/2) x, (A+I)^(1/2) y>``.

The shifted coefficient collapses to ``[[I, T], [T*, -I]]``, which makes
the associated matrix and, notably, its kernel explicitly computable:

    ker B = (ker A_plus  /\\  annihilator_plus)
        (+) (ker A_minus /\\  annihilator_minus)

where the annihilators are the images of ker T* / ker T under
``(A_pm + I)^(-1/2)``.  An independent nullspace oracle cross-checks the
formula on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, MatrixValidationError
from .general import (
    GapCertificate,
    RepresentationResult,
    _clamped_weight,
    _pairing,
    _probe_residuals,
    _represented_side,
    default_probes,
)
from .involution import Involution, canonical_involution
from .spectral import (
    SpectralDecomposition,
    SubspaceBasis,
    _kernel_of,
    apply_fn,
    eig_sym,
    min_abs_eig,
    nullspace,
    op_norm,
    orthonormal_columns,
    principal_angle,
    subspace_intersection,
    symmetrize,
)

OFFDIAG_TOL = 1e-10


@dataclass(frozen=True)
class OffDiagonalProblem:
    """Validated data of an off-diagonal perturbation problem.

    ``coupling_norm`` is recomputed as the spectral norm of the embedded
    coupling matrix ``S``; it is never taken on trust from the caller.
    ``weight_plus`` / ``weight_minus`` are the clamped block decompositions
    made while validating, ``weight`` the block-diagonal one assembled from
    them; every function of the weight is mapped from these.
    """

    diag_plus: np.ndarray
    diag_minus: np.ndarray
    coupling: np.ndarray
    coupling_norm: float
    weight_plus: SpectralDecomposition
    weight_minus: SpectralDecomposition
    weight: SpectralDecomposition

    @property
    def dim_plus(self) -> int:
        return self.diag_plus.shape[0]

    @property
    def dim_minus(self) -> int:
        return self.diag_minus.shape[0]

    @property
    def dim(self) -> int:
        return self.dim_plus + self.dim_minus

    def full_weight(self) -> np.ndarray:
        """Block-diagonal weight on the full space."""
        out = np.zeros((self.dim, self.dim))
        p = self.dim_plus
        out[:p, :p] = self.diag_plus
        out[p:, p:] = self.diag_minus
        return out

    def full_coupling(self) -> np.ndarray:
        """The embedded coupling ``S = [[0, T], [T*, 0]]``."""
        out = np.zeros((self.dim, self.dim))
        p = self.dim_plus
        out[:p, p:] = self.coupling
        out[p:, :p] = self.coupling.conj().T
        return out

    def splitting(self) -> Involution:
        return canonical_involution(self.dim_plus, self.dim_minus)


@dataclass(frozen=True)
class KernelReport:
    """Kernel of the associated matrix, assembled two independent ways."""

    ker_diag_plus: SubspaceBasis
    ker_diag_minus: SubspaceBasis
    annihilator_plus: SubspaceBasis
    annihilator_minus: SubspaceBasis
    theorem_kernel: SubspaceBasis
    oracle_kernel: SubspaceBasis
    principal_angle: float
    dims_match: bool


def offdiag_problem(
    diag_plus: np.ndarray, diag_minus: np.ndarray, coupling: np.ndarray
) -> OffDiagonalProblem:
    """Validate blocks and package an off-diagonal problem.

    Both diagonal blocks must be PSD up to the clamping tolerance; the
    coupling may be any dense rectangular matrix of matching shape.
    """
    sym_plus = symmetrize(diag_plus, "plus weight block")
    sym_minus = symmetrize(diag_minus, "minus weight block")
    weight_plus = _clamped_weight(sym_plus)
    weight_minus = _clamped_weight(sym_minus)
    coup = np.asarray(coupling, dtype=np.float64)
    if coup.ndim != 2 or coup.shape != (sym_plus.shape[0], sym_minus.shape[0]):
        raise MatrixValidationError(
            f"coupling must be {sym_plus.shape[0]} x {sym_minus.shape[0]}, "
            f"got {coup.shape}"
        )
    if not np.isfinite(coup).all():
        raise MatrixValidationError("coupling contains NaN or Inf entries")
    norm = float(np.linalg.norm(coup, 2)) if coup.size else 0.0
    p = weight_plus.n
    vals = np.concatenate([weight_plus.eigenvalues, weight_minus.eigenvalues])
    vecs = np.zeros((vals.size, vals.size))
    vecs[:p, :p] = weight_plus.eigenvectors
    vecs[p:, p:] = weight_minus.eigenvectors
    order = np.argsort(vals, kind="stable")
    return OffDiagonalProblem(
        diag_plus=sym_plus,
        diag_minus=sym_minus,
        coupling=coup,
        coupling_norm=norm,
        weight_plus=weight_plus,
        weight_minus=weight_minus,
        weight=SpectralDecomposition(
            eigenvalues=vals[order],
            eigenvectors=vecs[:, order],
            source_norm=max(weight_plus.source_norm, weight_minus.source_norm),
        ),
    )


def check_offdiagonal(
    coupling_full: np.ndarray, inv: Involution, tol: float = OFFDIAG_TOL
) -> tuple[bool, float]:
    """Check that a matrix is purely off-diagonal for a given splitting.

    Returns ``(verdict, residual)`` with ``residual`` the larger norm of
    the two diagonal compressions ``P S P`` and ``P_perp S P_perp``.  The
    equivalent anticommutation test ``||JS + SJ|| = 2 * residual`` is
    computed as a cross-check.
    """
    sym = symmetrize(coupling_full, "coupling matrix")
    if sym.shape[0] != inv.n:
        raise MatrixValidationError(
            f"dimension mismatch: involution is {inv.n}, matrix is {sym.shape[0]}"
        )
    proj_p = inv.projector_plus
    proj_m = inv.projector_minus
    residual = max(
        float(np.linalg.norm(proj_p @ sym @ proj_p, 2)),
        float(np.linalg.norm(proj_m @ sym @ proj_m, 2)),
    )
    anti = float(np.linalg.norm(inv.matrix @ sym + sym @ inv.matrix, 2))
    norm = op_norm(sym)
    if abs(anti - 2.0 * residual) > 1e-8 * max(norm, 1.0):
        raise InternalCheckError(
            f"off-diagonality cross-check disagrees: anticommutator {anti:.3e} "
            f"vs block residual {residual:.3e}"
        )
    return residual <= tol * max(norm, np.finfo(np.float64).tiny), residual


def _form_scale(problem: OffDiagonalProblem) -> float:
    return (1.0 + problem.weight.source_norm) * (1.0 + problem.coupling_norm)


def form_evaluator(problem: OffDiagonalProblem):
    """Closure evaluating the form ``a[x, Jy] + v[x, y]`` from the raw data.

    The spectral factors are precomputed once; the returned callable is the
    independent side of every representation-residual comparison.  Given
    probe vectors it returns the form value; given probes stacked as the
    columns of two matrices it returns the value of each column pair.
    """
    root = apply_fn(problem.weight, np.sqrt)
    shifted_root = apply_fn(problem.weight, lambda lam: np.sqrt(1.0 + lam))
    j_mat = problem.splitting().matrix
    s_mat = problem.full_coupling()

    def value(x: np.ndarray, y: np.ndarray):
        diag_part = _pairing(root @ x, j_mat @ (root @ y))
        coupling_part = _pairing(s_mat @ (shifted_root @ x), shifted_root @ y)
        return diag_part + coupling_part

    return value


def shifted_block_coefficient(problem: OffDiagonalProblem) -> np.ndarray:
    """The shifted coefficient ``[[I, T], [T*, -I]]``."""
    return problem.splitting().matrix + problem.full_coupling()


def _assembled(problem: OffDiagonalProblem) -> tuple[np.ndarray, np.ndarray]:
    """``(B + J, B)`` with ``B + J = (A+I)^(1/2) [[I, T], [T*, -I]] (A+I)^(1/2)``."""
    shifted_root = apply_fn(problem.weight, lambda lam: np.sqrt(1.0 + lam))
    shifted_operator = symmetrize(
        shifted_root @ shifted_block_coefficient(problem) @ shifted_root,
        "shifted operator",
    )
    operator = symmetrize(shifted_operator - problem.splitting().matrix, "associated matrix")
    return shifted_operator, operator


def assemble_offdiag(
    problem: OffDiagonalProblem, probe_seed: int = 0
) -> RepresentationResult:
    """Associated matrix for the off-diagonal form.

    Builds ``B = (A+I)^(1/2) [[I, T], [T*, -I]] (A+I)^(1/2) - J`` and
    measures the first/second representation residuals against the form
    evaluated directly from the problem data.  The gap certificate is
    automatic here: the splitting itself creates the gap with margin 1.
    """
    shifted_coeff = shifted_block_coefficient(problem)
    shifted_operator, operator = _assembled(problem)
    decomp = eig_sym(operator)
    first, second = _probe_residuals(
        default_probes(problem.dim, seed=probe_seed),
        _form_scale(problem),
        form_evaluator(problem),
        lambda xs, ys: _pairing(xs, operator @ ys),
        _represented_side(decomp),
    )
    return RepresentationResult(
        operator=operator,
        shifted_operator=shifted_operator,
        compressed_coefficient=direct_coefficient(problem, verify=False),
        shifted_coefficient=shifted_coeff,
        gap_radius=min_abs_eig(shifted_coeff),
        first_rep_residual=first,
        second_rep_residual=second,
        certificate=GapCertificate(
            lambda_min_plus=1.0, lambda_max_minus=-1.0, satisfied=True, alpha_star=1.0
        ),
        certified=True,
        weight=problem.weight,
        decomposition=decomp,
    )


def direct_coefficient(
    problem: OffDiagonalProblem, verify: bool = True
) -> np.ndarray:
    """Bounded middle factor representing the associated matrix directly.

    Returns ``[[I - (A_plus + I)^-1, T], [T*, -I + (A_minus + I)^-1]]``,
    which satisfies ``B = (A+I)^(1/2) C (A+I)^(1/2)`` with no involution
    shift.  With ``verify=True`` the identity is checked to
    ``1e-10 * scale``.
    """
    p = problem.dim_plus
    out = shifted_block_coefficient(problem)
    out[:p, :p] -= apply_fn(problem.weight_plus, lambda lam: 1.0 / (1.0 + lam))
    out[p:, p:] += apply_fn(problem.weight_minus, lambda lam: 1.0 / (1.0 + lam))
    if verify:
        _verify_direct(problem, out, _assembled(problem)[1])
    return out


def _verify_direct(
    problem: OffDiagonalProblem, coefficient: np.ndarray, operator: np.ndarray
) -> None:
    """Check ``B = (A+I)^(1/2) C (A+I)^(1/2)`` for the direct coefficient ``C``."""
    shifted_root = apply_fn(problem.weight, lambda lam: np.sqrt(1.0 + lam))
    rebuilt = shifted_root @ coefficient @ shifted_root
    defect = float(np.linalg.norm(rebuilt - operator, 2))
    tol = 1e-10 * _form_scale(problem)
    if defect > tol:
        raise InternalCheckError(
            f"direct-coefficient identity breached: {defect:.3e} > {tol:.3e}"
        )


def _annihilator(
    weight_block: SpectralDecomposition, kernel_of_adjoint: SubspaceBasis
) -> SubspaceBasis:
    """Image of a coupling kernel under ``(A_pm + I)^(-1/2)``, orthonormalized."""
    if kernel_of_adjoint.dim == 0:
        return SubspaceBasis.trivial(weight_block.n)
    inv_root = apply_fn(weight_block, lambda lam: 1.0 / np.sqrt(1.0 + lam))
    return orthonormal_columns(inv_root @ kernel_of_adjoint.vectors)


def kernel_via_theorem(problem: OffDiagonalProblem) -> KernelReport:
    """Kernel of the associated matrix by the explicit formula, with oracle.

    The formula intersects each weight-block kernel with the corresponding
    coupling annihilator and embeds the direct sum; the oracle is a plain
    rank-revealing nullspace of the assembled matrix.  The report carries
    both bases, the largest principal angle between them, and a dimension
    comparison.
    """
    return _kernel_report(problem, eig_sym(_assembled(problem)[1]))


def _kernel_report(
    problem: OffDiagonalProblem, decomp: SpectralDecomposition
) -> KernelReport:
    """``kernel_via_theorem`` with the oracle taken from the decomposition
    ``decomp`` of the assembled matrix."""
    p, q = problem.dim_plus, problem.dim_minus
    ker_plus = _kernel_of(problem.weight_plus)
    ker_minus = _kernel_of(problem.weight_minus)

    coupling = problem.coupling
    ker_adjoint = nullspace(coupling @ coupling.conj().T)  # ker T* in plus space
    ker_coupling = nullspace(coupling.conj().T @ coupling)  # ker T in minus space
    annihilator_plus = _annihilator(problem.weight_plus, ker_adjoint)
    annihilator_minus = _annihilator(problem.weight_minus, ker_coupling)

    _definitional_cross_check(problem, annihilator_plus, annihilator_minus)

    meet_plus = subspace_intersection(ker_plus, annihilator_plus)
    meet_minus = subspace_intersection(ker_minus, annihilator_minus)

    total = np.zeros((p + q, meet_plus.dim + meet_minus.dim))
    total[:p, : meet_plus.dim] = meet_plus.vectors
    total[p:, meet_plus.dim :] = meet_minus.vectors
    theorem_kernel = SubspaceBasis(total)
    oracle_kernel = _kernel_of(decomp)

    return KernelReport(
        ker_diag_plus=ker_plus,
        ker_diag_minus=ker_minus,
        annihilator_plus=annihilator_plus,
        annihilator_minus=annihilator_minus,
        theorem_kernel=theorem_kernel,
        oracle_kernel=oracle_kernel,
        principal_angle=principal_angle(theorem_kernel, oracle_kernel),
        dims_match=theorem_kernel.dim == oracle_kernel.dim,
    )


def _definitional_cross_check(
    problem: OffDiagonalProblem,
    annihilator_plus: SubspaceBasis,
    annihilator_minus: SubspaceBasis,
) -> None:
    """Secondary assertion: annihilator vectors pair to zero across halves.

    For every basis vector ``x`` of the plus annihilator the coupling part
    of the form against the whole minus half-space must vanish, i.e.
    ``T* (A_plus + I)^(1/2) x = 0`` (and symmetrically).  Guards the
    mapping step between the coupling kernels and the annihilators.
    """
    tol = 1e-8 * (1.0 + problem.coupling_norm) * np.sqrt(
        1.0 + problem.weight.source_norm
    )
    halves = (
        ("plus", problem.weight_plus, problem.coupling.conj().T, annihilator_plus),
        ("minus", problem.weight_minus, problem.coupling, annihilator_minus),
    )
    for label, weight, adjoint, annihilator in halves:
        if annihilator.dim:
            grown = apply_fn(weight, lambda lam: np.sqrt(1.0 + lam))
            defect = float(np.linalg.norm(adjoint @ grown @ annihilator.vectors, 2))
            if defect > tol:
                raise InternalCheckError(
                    f"{label} annihilator fails the defining pairing: {defect:.3e} > {tol:.3e}"
                )
