# Walkthrough: auditing the domain-stability condition.
#
# The represented-form identity needs dom(|B|^(1/2)) to equal the form
# domain.  Finite matrices satisfy it trivially, so the audit reports the
# norms of the operators whose boundedness is equivalent to it -- the
# weighted absolute value, its inverse dilation, and the sign conjugate --
# plus seven consistency flags that must all agree.  Sufficient criteria
# (definiteness, semiboundedness) are checked constructively.

import numpy as np

from formrep import (
    associate_general,
    gen_random,
    make_involution,
    sgn_matrix,
    shifted_coefficient,
    stability_suite,
    sufficient_definite,
    sufficient_semibounded,
    weight_sqrt,
)

# (1) The unitary sign with a selectable sign of zero.
operator = np.diag([3.0, -2.0, 0.0])
print("sgn with zero -> +1:", np.diag(sgn_matrix(operator, 1)))
print("sgn with zero -> -1:", np.diag(sgn_matrix(operator, -1)))

# (2) Equivalence suite on a certified random instance.
spec = gen_random("general", 10, seed=3, alpha_target=0.6)
splitting = make_involution(spec.matrices["J"])
result = associate_general(spec.matrices["A"], spec.matrices["H"], splitting)
report = stability_suite(spec.matrices["A"], result.operator, zero_sign=1)
print("\nnorms: weighted abs", f"{report.norm_weighted_abs:.4f}",
      "| inverse dilation", f"{report.norm_weighted_abs_inverse:.4f}",
      "| sign conjugate", f"{report.norm_sign_conjugate:.4f}")
print("involution residual  :", f"{report.involution_residual:.2e}")
print("inverse-pair residual:", f"{report.inverse_pair_residual:.2e}")
print("shifted gap          :", report.shifted_gap)
print("conditions           :", dict(report.conditions))

# (3) Sufficient criterion: strictly positive coefficient.
weight = np.diag([0.0, 1.0, 2.0])
coeff = np.diag([0.5, 1.0, 1.5])
root = weight_sqrt(weight)
psd_operator = root @ coeff @ root
print("\ndefinite criterion applies:", sufficient_definite(coeff, psd_operator))

# (4) Sufficient criterion: semiboundedness, certified by a doubling search
#     for a shift constant that makes the shifted coefficient positive.
_, shifted = shifted_coefficient(spec.matrices["A"], spec.matrices["H"], splitting)
ok, shift = sufficient_semibounded(spec.matrices["A"], shifted, result.operator, splitting)
print("semibounded criterion:", ok, "with shift constant", shift)
