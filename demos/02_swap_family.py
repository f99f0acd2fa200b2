# Walkthrough: a family where no splitting can ever certify a gap.
#
# The weight mixes arbitrarily large eigenvalues (k+1) with arbitrarily small
# ones (1/(k+1)) while the coefficient swaps each pair.  Blockwise,
# A_k^(1/2) H_k A_k^(1/2) = H_k, so the assembled matrix keeps norm 1 at
# every truncation size even though the weight condition number blows up
# quadratically.  Every diagonal splitting leaves the coefficient with a
# zero-trace block, so the exhaustive sweep fails at every size; the
# equivalence-suite norms grow with the size, which is the finite-
# dimensional signature of the trouble.

import numpy as np

from formrep import ProblemSpec, counterexample_pair, run

# (1) Look at the smallest truncation.
weight, coeff = counterexample_pair(1)
print("weight block :", np.diag(weight))
print("coefficient  :")
print(coeff)

# (2) Sweep sizes 1..5: 2^(2N) - 2 diagonal splittings each.  Each truncation
#     is also run as the general problem gen_counterexample(N) writes.
diag = run(ProblemSpec(kind="family", family_name="counterexample", sizes=[1, 2, 3, 4, 5])).family
norms = diag["norm_sequences"]
print("\nsize  splittings  gap found   ||B||      cond(A)    ||K||")
for i, size in enumerate(diag["truncation_sizes"]):
    print(
        f"{size:4d}  {2 ** (2 * size) - 2:10d}  {str(diag['gap_search_outcomes'][i]):9s}"
        f"  {norms['operator'][i]:8.5f}"
        f"  {norms['weight_condition'][i]:9.2f}"
        f"  {norms['sign_conjugate'][i]:8.5f}"
    )

# (3) The growth signature: the sign conjugate grows like sqrt(size+1) and
#     the conjugated coefficient keeps pace, while the operator norm stays
#     flat at 1.  Bounded operator, unbounded bookkeeping.
print("\nconjugated-coefficient norms:", np.round(norms["coefficient_conjugate"], 5))
print("expected sqrt(size+1)       :", np.round(np.sqrt(np.arange(2, 7)), 5))
