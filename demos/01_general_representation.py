# Walkthrough: from a sign-indefinite weighted form to its self-adjoint matrix.
#
# The form is b[x, y] = <A^(1/2) x, H A^(1/2) y> with a PSD weight A (kernels
# allowed) and an invertible self-adjoint coefficient H.  A splitting
# involution J that commutes with A and makes H uniformly positive on the
# plus half-space and uniformly negative on the minus half-space buys us a
# unique associated matrix B = A^(1/2) H A^(1/2) together with a certified
# resolvent interval around zero for the shifted matrix B + J.

import numpy as np

from formrep import (
    associate_general,
    check_gap_hypothesis,
    first_rep_residual,
    gap_certificate_check,
    make_involution,
    min_abs_eig,
)

# (1) A weight with a genuine kernel, a coefficient, and a splitting.
weight = np.diag([0.0, 1.0, 3.0, 2.0])
splitting = make_involution(np.diag([1.0, 1.0, -1.0, -1.0]))
coeff = np.array(
    [
        [1.5, 0.2, 0.4, -0.1],
        [0.2, 2.0, 0.0, 0.3],
        [0.4, 0.0, -1.2, 0.1],
        [-0.1, 0.3, 0.1, -2.5],
    ]
)

# (2) Certify the gap condition: both block margins must be positive.
cert = check_gap_hypothesis(weight, coeff, splitting)
print("gap certificate:", cert.satisfied)
print("  plus-block margin :", cert.lambda_min_plus)
print("  minus-block margin:", -cert.lambda_max_minus)
print("  certified alpha*  :", cert.alpha_star)

# (3) Assemble the associated matrix along both routes and compare.
result = associate_general(weight, coeff, splitting)
print("associated matrix B:")
print(np.round(result.operator, 6))
print("first-representation residual :", result.first_rep_residual)
print("second-representation residual:", result.second_rep_residual)

# (4) The certificate in action: (-c, c) avoids the spectrum of B + J.
print("certified gap radius c        :", result.gap_radius)
print("actual gap of B + J           :", min_abs_eig(result.operator + splitting.matrix))
print("margin (must be >= 0)         :", gap_certificate_check(result, splitting))

# (5) A broken operator is caught by the probe residual immediately.
tampered = result.operator + 0.05 * np.eye(4)
print("residual after tampering      :", first_rep_residual(weight, coeff, tampered))
