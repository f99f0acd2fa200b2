"""Dense self-adjoint spectral machinery.

Everything else in the library is built on the routines here: validated
eigendecompositions with a deterministic sign convention, spectral mapping
for matrix functions, rank-revealing nullspaces with an explicit threshold
policy, operator norms, and small subspace utilities (orthonormalisation,
intersections, principal angles).

All routines are pure functions over immutable values; no shared state.
Public routines validate each matrix argument with ``symmetrize``; the private
cores (``_eigh``, ``_min_abs``, ``_sym_norm``, ``_hermitian``, ``_in_frame``) validate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    MatrixValidationError,
    ResolventPointError,
    SpectralDomainError,
)

EPS = float(np.finfo(np.float64).eps)

#: Relative symmetry slack accepted at construction time, in units of eps*norm.
SYMMETRY_SLACK = 100.0


def kernel_tol(n: int, norm: float, scale: float = 1.0) -> float:
    """Default kernel threshold policy: ``tau = n * eps * norm * scale``.

    Eigenvalues with magnitude at or below ``tau`` are treated as zero.
    This is the kernel-decision threshold; only ``nullspace`` accepts an override.
    ``subspace_intersection`` reads it with ``norm = 2``, ``scale = 8`` as a rule on
    principal angles: ``sin theta <= sqrt(tau (2 - tau))``, that is ``1 - cos theta <= tau``.
    The flag, commutation, off-diagonal and residual bounds are separate constants.
    """
    return n * EPS * norm * scale


def symmetrize(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a square array as self-adjoint and return its symmetrized copy.

    Parameters
    ----------
    mat : array_like
        Square real or complex array.  The asymmetry
        ``max |M[i,j] - conj(M[j,i])|`` must not exceed
        ``100 * eps * ||M||`` or the input is rejected.
    name : str
        Label used in diagnostics.

    Returns
    -------
    np.ndarray
        ``(M + M*) / 2`` as float64 or complex128.

    Raises
    ------
    MatrixValidationError
        If the input is not square, contains non-finite entries, or is
        asymmetric beyond tolerance.
    """
    arr = np.asarray(mat)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise MatrixValidationError(f"{name} must have dimension >= 1")
    if not np.isfinite(arr).all():
        raise MatrixValidationError(f"{name} contains NaN or Inf entries")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
    asym = float(np.max(np.abs(arr - arr.conj().T)))
    # max |M_ij| <= ||M||, so the entry bound accepts most inputs without an SVD.
    if asym > SYMMETRY_SLACK * EPS * max(float(np.max(np.abs(arr))), 1.0):
        bound = SYMMETRY_SLACK * EPS * max(float(np.linalg.norm(arr, 2)), 1.0)
        if asym > bound:
            raise MatrixValidationError(
                f"{name} is not self-adjoint: asymmetry {asym:.3e} exceeds {bound:.3e}"
            )
    return _hermitian(arr)


def _hermitian(mat: np.ndarray) -> np.ndarray:
    """``(M + M*) / 2``, exactly self-adjoint: ``symmetrize`` without the validation, for
    products the library forms that are self-adjoint up to rounding."""
    return (mat + mat.conj().T) / 2.0


def _in_frame(decomp: SpectralDecomposition, mat: np.ndarray) -> np.ndarray:
    """``V* M V``, exactly self-adjoint: the frame where ``f`` of ``decomp`` is ``diag(f(w))``."""
    vecs = decomp.eigenvectors
    return _hermitian(vecs.conj().T @ mat @ vecs)


def _gram_norm(mat: np.ndarray) -> float:
    """``||mat||_2`` from the Gram matrix of ``mat`` over its largest entry: the
    division keeps a rounding-level residual from underflowing when squared."""
    scale = float(np.max(np.abs(mat), initial=0.0))
    if scale == 0.0:
        return 0.0
    unit = mat / scale
    return scale * float(np.sqrt(max(np.linalg.eigvalsh(unit.conj().T @ unit)[-1], 0.0)))


def _norm2_above(mat: np.ndarray, bound: float) -> float | None:
    """``||mat||_2`` if it exceeds ``bound``, else None.  ``||D||_2 <= ||D||_F``,
    so the Frobenius norm accepts most matrices without a 2-norm."""
    if np.linalg.norm(mat) <= bound:
        return None
    norm = _gram_norm(mat)
    return norm if norm > bound else None


def _sym_norm(mat: np.ndarray) -> float:
    """``op_norm`` of a matrix that is symmetric by construction.  ``eigvalsh``
    reads one triangle: nothing validates or removes the matrix's rounding-level
    asymmetry, which never costs an SVD or raises."""
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def _min_abs(mat: np.ndarray) -> float:
    """``min_abs_eig`` of a matrix that is symmetric by construction, unvalidated."""
    return float(np.min(np.abs(np.linalg.eigvalsh(mat))))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition ``M = V diag(w) V*`` of a self-adjoint matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` has orthonormal columns
    with a deterministic sign convention (first significant component of
    each column is positive real).  ``source_norm`` is ``max |w|``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source_norm: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return ``V diag(w) V*``."""
        vecs = self.eigenvectors
        return (vecs * self.eigenvalues) @ vecs.conj().T


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace; ``dim == 0`` encodes the trivial space.

    Orthonormality is enforced at construction to ``1e-12 * n``.
    """

    vectors: np.ndarray  # n x k, orthonormal columns

    def __post_init__(self):
        vecs = self.vectors
        if vecs.ndim != 2:
            raise MatrixValidationError(
                f"basis must be a 2-d array, got shape {vecs.shape}"
            )
        if vecs.shape[1]:
            gram_defect = vecs.conj().T @ vecs - np.eye(vecs.shape[1])
            defect = _norm2_above(gram_defect, 1e-12 * max(vecs.shape[0], 1))
            if defect is not None:
                raise MatrixValidationError(
                    f"basis columns are not orthonormal: defect {defect:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[0]

    @staticmethod
    def trivial(n: int, dtype=np.float64) -> "SubspaceBasis":
        return SubspaceBasis(np.zeros((n, 0), dtype=dtype))


def _fix_column_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the first significant component of each column positive real.

    Columns are unit vectors, so the entry of largest magnitude is at least
    ``n**-1/2``; any entry above ``1e-8`` is therefore 'significant'.
    """
    pivots = vecs[np.argmax(np.abs(vecs) > 1e-8, axis=0), np.arange(vecs.shape[1])]
    if np.iscomplexobj(vecs):
        return vecs * (pivots.conj() / np.abs(pivots))
    return vecs * np.where(pivots < 0, -1.0, 1.0)


def eig_sym(mat: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a self-adjoint matrix.

    Parameters
    ----------
    mat : array_like
        Square self-adjoint matrix (validated and symmetrized on entry).

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues, orthonormal eigenvectors with the
        deterministic sign convention, and the spectral norm.
    """
    return _eigh(symmetrize(mat))


def _eigh(mat: np.ndarray) -> SpectralDecomposition:
    """``eig_sym`` of a matrix that is exactly self-adjoint already, unvalidated."""
    vals, vecs = np.linalg.eigh(mat)
    return SpectralDecomposition(
        eigenvalues=vals,
        eigenvectors=_fix_column_phases(vecs),
        source_norm=float(np.max(np.abs(vals))) if vals.size else 0.0,
    )


def apply_fn(
    decomp: SpectralDecomposition, fn: Callable[[float], float]
) -> np.ndarray:
    """Spectral mapping: return ``V diag(fn(w)) V*``.

    ``fn`` is applied eigenvalue by eigenvalue and must return a finite
    scalar on each one; a non-finite value or an exception is reported as a
    domain error naming the offending eigenvalue.
    """
    mapped = np.empty(decomp.n, dtype=np.float64)
    for i, lam in enumerate(decomp.eigenvalues):
        try:
            mapped[i] = float(fn(float(lam)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise SpectralDomainError(
                f"function undefined at eigenvalue {lam!r}: {exc}"
            ) from exc
    return _spectral_map(decomp, mapped)


def _spectral_map(decomp: SpectralDecomposition, values: np.ndarray) -> np.ndarray:
    """``V diag(values) V*``, symmetrized: ``apply_fn`` for values mapped already."""
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        val, lam = float(values[i]), float(decomp.eigenvalues[i])
        raise SpectralDomainError(
            f"function returned non-finite value {val!r} at eigenvalue {lam!r}"
        )
    vecs = decomp.eigenvectors
    return _hermitian((vecs * values) @ vecs.conj().T)


def _signum(decomp: SpectralDecomposition, zero: float) -> Callable:
    """Sign of eigenvalues of ``decomp``, one or an array; ``zero`` inside ``kernel_tol``."""
    tau = kernel_tol(decomp.n, decomp.source_norm)
    return lambda lam: np.where(np.abs(lam) <= tau, zero, np.sign(lam))


def matrix_function(mat: np.ndarray, fn: Callable[[float], float]) -> np.ndarray:
    """Convenience wrapper: ``apply_fn(eig_sym(mat), fn)``."""
    return apply_fn(eig_sym(mat), fn)


def nullspace(mat: np.ndarray, tol_policy: float | None = None) -> SubspaceBasis:
    """Orthonormal basis of the numerical kernel of a self-adjoint matrix.

    The kernel is the span of eigenvectors whose eigenvalue magnitude is at
    most ``tau``: ``tol_policy`` if given, else ``kernel_tol(n, ||M||)``.
    An empty basis is a valid result.
    """
    return _kernel_of(eig_sym(mat), tol_policy)


def _kernel_of(decomp: SpectralDecomposition, tol_policy: float | None = None) -> SubspaceBasis:
    """``nullspace`` of the matrix that ``decomp`` decomposes."""
    tau = kernel_tol(decomp.n, decomp.source_norm) if tol_policy is None else float(tol_policy)
    return SubspaceBasis(decomp.eigenvectors[:, np.abs(decomp.eigenvalues) <= tau])


def op_norm(mat: np.ndarray) -> float:
    """Spectral norm ``max |eigenvalue|`` of a self-adjoint matrix."""
    return _sym_norm(symmetrize(mat))


def min_abs_eig(mat: np.ndarray) -> float:
    """Smallest eigenvalue magnitude of a self-adjoint matrix."""
    return _min_abs(symmetrize(mat))


def resolvent_identity_residual(mat_a: np.ndarray, mat_b: np.ndarray, point: float) -> float:
    """Residual of the second resolvent identity at a common resolvent point.

    For resolvents ``R(M) = (point*I - M)^-1`` the identity

        ``R(M1) - R(M2) = R(M1) (M1 - M2) R(M2) = R(M2) (M1 - M2) R(M1)``

    holds whenever ``point`` avoids both spectra.  Both factor orders are
    evaluated and the larger residual norm is returned.

    Raises
    ------
    ResolventPointError
        If ``point`` lies within ``100 * n * eps * (||M|| + |point|)`` of an
        eigenvalue of either input ``M``.
    """
    sym_a = symmetrize(mat_a, "first matrix")
    sym_b = symmetrize(mat_b, "second matrix")
    if sym_a.shape != sym_b.shape:
        raise MatrixValidationError(
            f"shape mismatch: {sym_a.shape} vs {sym_b.shape}"
        )
    n = sym_a.shape[0]
    for label, sym in (("first", sym_a), ("second", sym_b)):
        vals = np.linalg.eigvalsh(sym)
        gap = 100.0 * n * EPS * (float(np.max(np.abs(vals), initial=0.0)) + abs(point))
        dist = np.abs(vals - point)
        nearest = int(np.argmin(dist))
        if dist[nearest] <= gap:
            raise ResolventPointError(
                f"point {point!r} is within {gap:.3e} of eigenvalue "
                f"{vals[nearest]!r} of the {label} matrix"
            )
    eye = np.eye(n, dtype=sym_a.dtype)
    res_a = np.linalg.solve(point * eye - sym_a, eye)
    res_b = np.linalg.solve(point * eye - sym_b, eye)
    diff = sym_a - sym_b
    lhs = res_a - res_b
    first = np.linalg.norm(lhs - res_a @ diff @ res_b, 2)
    second = np.linalg.norm(lhs - res_b @ diff @ res_a, 2)
    return float(max(first, second))


def orthonormal_columns(vectors: np.ndarray) -> SubspaceBasis:
    """Orthonormalize columns, dropping directions whose ``|R_ii|`` is at most the rank
    tolerance ``max(shape) * eps * max |R_ii|`` of the QR factorization."""
    arr = np.asarray(vectors, dtype=np.complex128 if np.iscomplexobj(vectors) else np.float64)
    n = arr.shape[0]
    if arr.shape[1] == 0:
        return SubspaceBasis.trivial(n, dtype=arr.dtype)
    q_fac, r_fac = np.linalg.qr(arr)
    diag = np.abs(np.diag(r_fac))
    tol = max(arr.shape) * EPS * (float(diag.max()) if diag.size else 0.0)
    return SubspaceBasis(q_fac[:, diag > tol])


def _rejection(onto: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``(I - P) vecs`` for ``P`` the projector onto the orthonormal columns ``onto``, unformed."""
    return vecs - onto @ (onto.conj().T @ vecs)


def subspace_intersection(first: SubspaceBasis, second: SubspaceBasis) -> SubspaceBasis:
    """Intersection of two subspaces of a common ambient space.

    The rejection ``R = (I - P2) U1`` has the sines of the principal angles as its singular
    values, and ``U1 V`` are the first's principal vectors, ``V`` those of ``R`` on the right.
    Those with ``sin theta <= sqrt(tau (2 - tau))``, ``tau = kernel_tol(n, 2, scale=8)``, span
    the intersection: the rule ``1 - cos theta <= tau`` on the eigenvalues of the PSD
    ``(I - P1) + (I - P2)``, which vanishes exactly on the intersection.
    """
    if first.ambient_dim != second.ambient_dim:
        raise MatrixValidationError(
            f"ambient dimension mismatch: {first.ambient_dim} vs {second.ambient_dim}"
        )
    n = first.ambient_dim
    if first.dim == 0 or second.dim == 0:
        return SubspaceBasis.trivial(n, dtype=first.vectors.dtype)
    tau, u1 = kernel_tol(n, 2.0, scale=8.0), first.vectors
    _, sines, right_h = np.linalg.svd(_rejection(second.vectors, u1), full_matrices=False)
    return SubspaceBasis(u1 @ right_h[sines <= np.sqrt(tau * (2.0 - tau))].conj().T)


def principal_angle(first: SubspaceBasis, second: SubspaceBasis) -> float:
    """Largest canonical angle between two subspaces, in radians.

    Zero iff the subspaces coincide (for equal dimensions).  Computed from
    sines, ``max ||(I - P1) U2||, ||(I - P2) U1||``, which keeps full
    precision for small angles (the cosine route loses half the digits near
    coincidence).  By convention two trivial subspaces have angle 0 and a
    trivial subspace paired with a nontrivial one has angle pi/2.
    """
    if first.ambient_dim != second.ambient_dim:
        raise MatrixValidationError(
            f"ambient dimension mismatch: {first.ambient_dim} vs {second.ambient_dim}"
        )
    if first.dim == 0 and second.dim == 0:
        return 0.0
    if first.dim == 0 or second.dim == 0:
        return float(np.pi / 2.0)
    u1, u2 = first.vectors, second.vectors
    sine = max(np.linalg.norm(_rejection(u1, u2), 2), np.linalg.norm(_rejection(u2, u1), 2))
    return float(np.arcsin(min(sine, 1.0)))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with sign fixing."""
    gauss = rng.standard_normal((n, n))
    q_fac, r_fac = np.linalg.qr(gauss)
    return q_fac * np.sign(np.diag(r_fac))
