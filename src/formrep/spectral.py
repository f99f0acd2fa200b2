"""Dense self-adjoint spectral machinery.

Everything else in the library is built on the routines here: validated
eigendecompositions with a deterministic sign convention, spectral mapping
for matrix functions, rank-revealing nullspaces with an explicit threshold
policy, operator norms, and small subspace utilities (orthonormalisation,
intersections, principal angles).

All routines are pure functions over immutable values; no shared state.
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
    The policy is the central numerical decision of the library; every
    routine that needs a threshold accepts an override.
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
    herm = arr.conj().T
    asym = float(np.max(np.abs(arr - herm)))
    # max |M_ij| <= ||M||, so the entry bound accepts most inputs without an SVD.
    if asym > SYMMETRY_SLACK * EPS * max(float(np.max(np.abs(arr))), 1.0):
        bound = SYMMETRY_SLACK * EPS * max(float(np.linalg.norm(arr, 2)), 1.0)
        if asym > bound:
            raise MatrixValidationError(
                f"{name} is not self-adjoint: asymmetry {asym:.3e} exceeds {bound:.3e}"
            )
    return (arr + herm) / 2.0


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
            bound = 1e-12 * max(vecs.shape[0], 1)
            # ||D||_2 <= ||D||_F, so the Frobenius norm accepts most bases without an SVD.
            if np.linalg.norm(gram_defect) > bound:
                defect = float(np.linalg.norm(gram_defect, 2))
                if defect > bound:
                    raise MatrixValidationError(
                        f"basis columns are not orthonormal: defect {defect:.3e}"
                    )

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[0]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.vectors @ self.vectors.conj().T

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
    sym = symmetrize(mat)
    vals, vecs = np.linalg.eigh(sym)
    vecs = _fix_column_phases(vecs)
    return SpectralDecomposition(
        eigenvalues=vals,
        eigenvectors=vecs,
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
            val = float(fn(float(lam)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise SpectralDomainError(
                f"function undefined at eigenvalue {lam!r}: {exc}"
            ) from exc
        if not np.isfinite(val):
            raise SpectralDomainError(
                f"function returned non-finite value {val!r} at eigenvalue {lam!r}"
            )
        mapped[i] = val
    vecs = decomp.eigenvectors
    out = (vecs * mapped) @ vecs.conj().T
    return (out + out.conj().T) / 2.0


def _signum(decomp: SpectralDecomposition, zero: float) -> Callable[[float], float]:
    """Sign of an eigenvalue of ``decomp``, ``zero`` within the kernel threshold."""
    tau = kernel_tol(decomp.n, decomp.source_norm)
    return lambda lam: zero if abs(lam) <= tau else (1.0 if lam > 0 else -1.0)


def matrix_function(mat: np.ndarray, fn: Callable[[float], float]) -> np.ndarray:
    """Convenience wrapper: ``apply_fn(eig_sym(mat), fn)``."""
    return apply_fn(eig_sym(mat), fn)


TolPolicy = Callable[[int, float], float]


def _resolve_tol(n: int, norm: float, tol_policy: TolPolicy | float | None) -> float:
    if tol_policy is None:
        return kernel_tol(n, norm)
    if callable(tol_policy):
        return float(tol_policy(n, norm))
    return float(tol_policy)


def nullspace(
    mat: np.ndarray, tol_policy: TolPolicy | float | None = None
) -> SubspaceBasis:
    """Orthonormal basis of the numerical kernel of a self-adjoint matrix.

    The kernel is the span of eigenvectors whose eigenvalue magnitude is at
    most ``tau``, where ``tau = tol_policy(n, ||M||)`` (default policy
    ``kernel_tol``).  An empty basis is a valid result.
    """
    return _kernel_of(eig_sym(mat), tol_policy)


def _kernel_of(
    decomp: SpectralDecomposition, tol_policy: TolPolicy | float | None = None
) -> SubspaceBasis:
    """``nullspace`` of the matrix that ``decomp`` decomposes."""
    tau = _resolve_tol(decomp.n, decomp.source_norm, tol_policy)
    return SubspaceBasis(decomp.eigenvectors[:, np.abs(decomp.eigenvalues) <= tau])


def op_norm(mat: np.ndarray) -> float:
    """Spectral norm ``max |eigenvalue|`` of a self-adjoint matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(symmetrize(mat)))))


def min_abs_eig(mat: np.ndarray) -> float:
    """Smallest eigenvalue magnitude of a self-adjoint matrix."""
    return float(np.min(np.abs(np.linalg.eigvalsh(symmetrize(mat)))))


def resolvent_identity_residual(
    mat_a: np.ndarray,
    mat_b: np.ndarray,
    point: float,
    margin: float | None = None,
) -> float:
    """Residual of the second resolvent identity at a common resolvent point.

    For resolvents ``R(M) = (point*I - M)^-1`` the identity

        ``R(M1) - R(M2) = R(M1) (M1 - M2) R(M2) = R(M2) (M1 - M2) R(M1)``

    holds whenever ``point`` avoids both spectra.  Both factor orders are
    evaluated and the larger residual norm is returned.

    Raises
    ------
    ResolventPointError
        If ``point`` is within ``margin`` of an eigenvalue of either input
        (default margin: ``100 * n * eps * (||M|| + |point|)``).
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
        gap = margin
        if gap is None:
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


def orthonormal_columns(vectors: np.ndarray, tol: float | None = None) -> SubspaceBasis:
    """Orthonormalize columns, dropping directions below the rank tolerance."""
    arr = np.asarray(vectors, dtype=np.complex128 if np.iscomplexobj(vectors) else np.float64)
    n = arr.shape[0]
    if arr.shape[1] == 0:
        return SubspaceBasis.trivial(n, dtype=arr.dtype)
    q_fac, r_fac = np.linalg.qr(arr)
    diag = np.abs(np.diag(r_fac))
    if tol is None:
        tol = max(arr.shape) * EPS * (float(diag.max()) if diag.size else 0.0)
    keep = diag > tol
    return SubspaceBasis(q_fac[:, keep])


def subspace_intersection(
    first: SubspaceBasis, second: SubspaceBasis, tol_policy: TolPolicy | float | None = None
) -> SubspaceBasis:
    """Intersection of two subspaces of a common ambient space.

    Computed as the nullspace of ``(I - P1) + (I - P2)`` where ``P1, P2``
    are the orthogonal projectors; the sum is PSD and vanishes exactly on
    the intersection.
    """
    if first.ambient_dim != second.ambient_dim:
        raise MatrixValidationError(
            f"ambient dimension mismatch: {first.ambient_dim} vs {second.ambient_dim}"
        )
    n = first.ambient_dim
    if first.dim == 0 or second.dim == 0:
        return SubspaceBasis.trivial(n, dtype=first.vectors.dtype)
    eye = np.eye(n, dtype=np.result_type(first.vectors, second.vectors))
    gram = (eye - first.projector()) + (eye - second.projector())
    # The defect operator has norm <= 2; use an absolute threshold tied to it.
    if tol_policy is None:
        tol_policy = kernel_tol(n, 2.0, scale=8.0)
    return nullspace(gram, tol_policy)


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
    rejection_21 = u2 - u1 @ (u1.conj().T @ u2)
    rejection_12 = u1 - u2 @ (u2.conj().T @ u1)
    sine = max(
        float(np.linalg.norm(rejection_21, 2)),
        float(np.linalg.norm(rejection_12, 2)),
    )
    return float(np.arcsin(min(sine, 1.0)))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with sign fixing."""
    gauss = rng.standard_normal((n, n))
    q_fac, r_fac = np.linalg.qr(gauss)
    return q_fac * np.sign(np.diag(r_fac))
