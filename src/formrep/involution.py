"""Self-adjoint involutions and the block splitting they induce.

A self-adjoint involution ``J`` (``J* = J``, ``J^2 = I``, ``J != +-I``)
splits the space into its +1 and -1 eigenspaces.  This module validates
involutions, extracts the spectral projectors and orthonormal half-space
bases, checks commutation with other matrices, expresses matrices in block
coordinates, and exhaustively enumerates the diagonal sign patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    EnumerationBoundError,
    InvolutionError,
    MatrixValidationError,
    TrivialInvolutionError,
)
from .spectral import (
    SubspaceBasis,
    _eigh,
    _gram_norm,
    _hermitian,
    _sym_norm,
    symmetrize,
)

#: Guard for the 2^n diagonal enumeration.
MAX_ENUMERATION_DIM = 24

#: Relative commutation tolerance of ``commutes`` and the gap check.
COMMUTATION_TOL = 1e-10

_EPS_FLOOR = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class Involution:
    """A validated self-adjoint involution with its spectral splitting.

    ``projector_plus`` / ``projector_minus`` project onto the +1 / -1
    eigenspaces, whose orthonormal bases are stored in ``plus_basis`` /
    ``minus_basis`` (ordered by the spectral-core sign convention so block
    coordinates are deterministic).
    """

    matrix: np.ndarray
    plus_basis: SubspaceBasis
    minus_basis: SubspaceBasis

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def projector_plus(self) -> np.ndarray:
        """``(I + J) / 2``, formed on each access."""
        return (np.eye(self.n, dtype=self.matrix.dtype) + self.matrix) / 2.0

    @property
    def projector_minus(self) -> np.ndarray:
        """``I - projector_plus``, formed on each access."""
        return np.eye(self.n, dtype=self.matrix.dtype) - self.projector_plus

    @property
    def dim_plus(self) -> int:
        return self.plus_basis.dim

    @property
    def dim_minus(self) -> int:
        return self.minus_basis.dim

    def half_space_frame(self) -> np.ndarray:
        """Orthonormal frame ``[plus_basis | minus_basis]`` (n x n)."""
        return np.hstack([self.plus_basis.vectors, self.minus_basis.vectors])


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks of a self-adjoint matrix in the coordinates of an involution.

    In the frame ``[plus_basis | minus_basis]`` the matrix reads
    ``[[plus_block, coupling], [coupling*, minus_block]]``.
    """

    plus_block: np.ndarray
    minus_block: np.ndarray
    coupling: np.ndarray

    def assemble(self) -> np.ndarray:
        """Reassemble the full matrix in block coordinates."""
        top = np.hstack([self.plus_block, self.coupling])
        bottom = np.hstack([self.coupling.conj().T, self.minus_block])
        return np.vstack([top, bottom])


def make_involution(mat: np.ndarray) -> Involution:
    """Validate and package a self-adjoint involution.

    Raises
    ------
    InvolutionError
        If ``J^2 != I`` beyond ``1e-12 * n``.
    TrivialInvolutionError
        If ``J = I`` or ``J = -I`` (a splitting needs both eigenvalues).
    """
    sym = symmetrize(mat, "involution candidate")
    n = sym.shape[0]
    decomp = _eigh(sym)
    # J^2 - I = V diag(mu^2 - 1) V*, so its spectral norm is the largest |mu^2 - 1|.
    square_defect = float(np.max(np.abs(decomp.eigenvalues**2 - 1.0)))
    if square_defect > 1e-12 * n:
        raise InvolutionError(
            f"not an involution: ||J^2 - I|| = {square_defect:.3e} exceeds {1e-12 * n:.1e}"
        )
    plus_mask = decomp.eigenvalues > 0.0
    dim_plus = int(np.count_nonzero(plus_mask))
    if dim_plus == 0 or dim_plus == n:
        raise TrivialInvolutionError(
            "trivial involution: J equals +I or -I, both eigenvalues must be present"
        )
    return Involution(
        matrix=sym,
        plus_basis=SubspaceBasis(decomp.eigenvectors[:, plus_mask]),
        minus_basis=SubspaceBasis(decomp.eigenvectors[:, ~plus_mask]),
    )


def _validated(mat: np.ndarray, inv: Involution, name: str = "matrix") -> np.ndarray:
    """``symmetrize(mat, name)``, checked to have the involution's dimension."""
    sym = symmetrize(mat, name)
    if sym.shape[0] != inv.n:
        raise MatrixValidationError(
            f"dimension mismatch: involution is {inv.n}, matrix is {sym.shape[0]}"
        )
    return sym


def commutes(inv: Involution, mat: np.ndarray) -> tuple[bool, float]:
    """Check ``[J, M] = 0``; returns ``(verdict, ||JM - MJ||)``.

    The verdict is true iff the commutator norm is at most ``COMMUTATION_TOL * ||M||``.
    """
    sym = _validated(mat, inv)
    residual = _gram_norm(inv.matrix @ sym - sym @ inv.matrix)
    # max |M_ij| <= ||M||, so the entry bound settles most verdicts without an eigensolve.
    ok = residual <= COMMUTATION_TOL * max(float(np.max(np.abs(sym))), _EPS_FLOOR) or (
        residual <= COMMUTATION_TOL * max(_sym_norm(sym), _EPS_FLOOR)
    )
    return ok, residual


def block_decompose(mat: np.ndarray, inv: Involution) -> BlockDecomposition:
    """Express a self-adjoint matrix in the involution's block coordinates."""
    sym = _validated(mat, inv)
    frame = inv.half_space_frame()
    coords = frame.conj().T @ sym @ frame
    p = inv.dim_plus
    return BlockDecomposition(
        plus_block=_hermitian(coords[:p, :p]),
        minus_block=_hermitian(coords[p:, p:]),
        coupling=coords[:p, p:].copy(),
    )


def _diagonal_involution(signs: np.ndarray) -> Involution:
    """Build an Involution for a +-1 diagonal pattern without an eigensolve.

    The canonical unit vectors are the orthonormal eigenbasis, listed in
    ascending index order inside each eigenspace (the same order the
    spectral sign convention produces for diagonal matrices).
    """
    eye = np.eye(signs.shape[0])
    plus_idx = np.flatnonzero(signs > 0)
    minus_idx = np.flatnonzero(signs < 0)
    return Involution(
        matrix=np.diag(signs.astype(np.float64)),
        plus_basis=SubspaceBasis(eye[:, plus_idx]),
        minus_basis=SubspaceBasis(eye[:, minus_idx]),
    )


def canonical_involution(dim_plus: int, dim_minus: int) -> Involution:
    """The sign pattern ``diag(+1 x dim_plus, -1 x dim_minus)``."""
    if dim_plus < 1 or dim_minus < 1:
        raise MatrixValidationError(
            "canonical involution needs at least one dimension on each side"
        )
    signs = np.concatenate([np.ones(dim_plus), -np.ones(dim_minus)])
    return _diagonal_involution(signs)


def enumerate_diagonal_involutions(n: int) -> Iterator[Involution]:
    """Yield every diagonal sign-pattern involution except ``+I`` and ``-I``.

    There are exactly ``2**n - 2`` of them; ``n`` is capped at
    ``MAX_ENUMERATION_DIM`` to keep the sweep tractable.
    """
    if n < 1:
        raise MatrixValidationError(f"dimension must be >= 1, got {n}")
    if n > MAX_ENUMERATION_DIM:
        raise EnumerationBoundError(
            f"n = {n} exceeds the enumeration bound {MAX_ENUMERATION_DIM} "
            f"(2^{n} patterns)"
        )
    for bits in range(1, 2**n - 1):
        signs = np.where(
            (bits >> np.arange(n)) & 1 > 0, 1.0, -1.0
        )
        yield _diagonal_involution(signs)
