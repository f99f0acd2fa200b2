"""Exception types shared across the library."""

from __future__ import annotations


class FormrepError(ValueError):
    """Base class for all library errors."""


class MatrixValidationError(FormrepError):
    """Input array is not a usable self-adjoint matrix (shape, symmetry, NaN/Inf)."""


class SpectralDomainError(FormrepError):
    """A scalar function was applied outside its domain (names the offending eigenvalue)."""


class InvolutionError(FormrepError):
    """Candidate matrix squares to something other than the identity."""


class TrivialInvolutionError(InvolutionError):
    """Candidate involution equals +I or -I; both eigenvalues must be present."""


class NotPositiveSemidefiniteError(FormrepError):
    """Weight matrix has an eigenvalue below the clamping tolerance."""


class SingularMatrixError(FormrepError):
    """Matrix required to be invertible has an eigenvalue inside the kernel threshold."""


class CommutationError(FormrepError):
    """Supplied involution does not commute with the weight matrix."""


class HypothesisRefusedError(FormrepError):
    """The spectral-gap condition failed and ``force`` was not requested."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate  # the refused GapCertificate


class ResolventPointError(FormrepError):
    """Requested resolvent point sits within tolerance of a spectrum."""


class InternalCheckError(FormrepError):
    """An identity that holds in exact arithmetic was breached beyond tolerance.

    Indicates a tolerance budget problem inside the library, not bad user input.
    """


class EnumerationBoundError(FormrepError):
    """Requested exhaustive enumeration exceeds the configured size guard."""


class SpecFormatError(FormrepError):
    """Problem-specification file is missing fields, malformed, or inconsistent."""
