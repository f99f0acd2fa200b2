"""formrep: self-adjoint matrices associated with sign-indefinite weighted forms.

The library builds, for a positive-semidefinite weight ``A`` and an
invertible self-adjoint coefficient ``H``, the matrix
``B = A^(1/2) H A^(1/2)`` representing the form
``<A^(1/2) x, H A^(1/2) y>``; certifies the spectral gap of the shifted
matrix ``B + J`` created by a splitting involution; computes kernels of
off-diagonal perturbation problems by an explicit formula with an
independent nullspace oracle; and audits the domain-stability condition
behind the represented-form identity through an equivalence suite and
truncation-family growth diagnostics.
"""

from .errors import (
    CommutationError,
    EnumerationBoundError,
    FormrepError,
    HypothesisRefusedError,
    InternalCheckError,
    InvolutionError,
    MatrixValidationError,
    NotPositiveSemidefiniteError,
    ResolventPointError,
    SingularMatrixError,
    SpecFormatError,
    SpectralDomainError,
    TrivialInvolutionError,
)
from .general import (
    GapCertificate,
    RepresentationResult,
    associate_general,
    check_gap_hypothesis,
    default_probes,
    first_rep_residual,
    gap_certificate_check,
    second_rep_residual,
    shifted_coefficient,
    weight_sqrt,
)
from .harness import (
    FAMILIES,
    ProblemSpec,
    Report,
    counterexample_pair,
    gen_constant,
    gen_counterexample,
    gen_random,
    load_spec,
    run,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)
from .involution import (
    BlockDecomposition,
    Involution,
    block_decompose,
    canonical_involution,
    commutes,
    enumerate_diagonal_involutions,
    make_involution,
)
from .offdiag import (
    KernelReport,
    OffDiagonalProblem,
    assemble_offdiag,
    check_offdiagonal,
    direct_coefficient,
    form_evaluator,
    kernel_via_theorem,
    offdiag_problem,
)
from .spectral import (
    SpectralDecomposition,
    SubspaceBasis,
    apply_fn,
    eig_sym,
    kernel_tol,
    matrix_function,
    min_abs_eig,
    nullspace,
    op_norm,
    orthonormal_columns,
    principal_angle,
    resolvent_identity_residual,
    subspace_intersection,
    symmetrize,
)
from .stability import (
    StabilityReport,
    sgn_matrix,
    spectral_identity_residual,
    stability_suite,
    sufficient_definite,
    sufficient_semibounded,
)

__version__ = "0.1.0"
