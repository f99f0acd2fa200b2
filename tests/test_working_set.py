"""Peak working set of a run and of its stability suite, in units of ``n^2`` doubles.

Each n x n matrix of a run lives from its first use to its last.  The run
releases the involution and the offdiag problem before the suite and hands
the suite the only references to ``B``, its eigenvectors ``V`` and the
weight's eigenvectors ``W``: the suite frees ``B`` once ``B + sgn B`` is
formed, and ``W`` and ``V`` once the forward pair ``F`` and ``Q = W* V``
exist.  Traced peaks are taken on a second call (the first warms numpy's
caches), with the problem built before tracing starts.

Measured: a run peaks at 9.36 n^2 (general n=384, in the probe phase, whose
``min(2n, 256)`` probe pairs are drawn in one array) and 7.74 n^2 (offdiag
p=q=192, in ``assemble_offdiag``'s probe phase).  The suite, counting the
three inputs it owns, peaks at 5.07 n^2.  Before the suite owned its inputs,
both runs peaked in the suite at 9.0 n^2 (the general run at 9.4 n^2 in its
probe phase), and the suite at 9.0 n^2 with its inputs (6.0 n^2 above them).
A general run peaked at 12.1 n^2 while it mapped ``A^(1/2)``, ``(A+I)^(1/2)``
and the two factors of the shifted coefficient as n x n matrices instead of
reading them as diagonals in the eigenbasis of ``A``.  Earlier, the two peaks
were 13.1 and 12.7 n^2 while a general run also formed an unread self-adjoint
copy of ``R H R`` and an offdiag problem held ``(A+I)^(1/2)`` and ``J`` as
n x n matrices; 19.0 and 21.1 n^2 when the suite held all its matrices.
"""

import tracemalloc

import pytest

from formrep import (
    assemble_offdiag,
    associate_general,
    gen_random,
    make_involution,
    offdiag_problem,
    run,
)
from formrep.spectral import SpectralDecomposition
from formrep.stability import _stability

#: Both problems have dimension n = 384.
N = 384
CASES = {"general": ("general", N, 0), "offdiag": ("offdiag", (N // 2, N // 2), 0)}
#: Traced peak bound of one run, in n^2 doubles, per case (measured 9.36 and 7.74).
RUN_PEAK_BOUNDS = {"general": 9.5, "offdiag": 7.9}
#: Traced peak bound of the suite with the three inputs it owns (measured 5.07).
SUITE_PEAK_BOUND = 5.3


def traced_peak(call):
    """``call()``'s value and its traced peak in n^2 doubles, on a second call."""
    call()
    tracemalloc.start()
    try:
        value = call()
        return value, tracemalloc.get_traced_memory()[1] / (8 * N * N)
    finally:
        tracemalloc.stop()


def copied(decomp):
    return SpectralDecomposition(
        decomp.eigenvalues.copy(), decomp.eigenvectors.copy(), decomp.source_norm
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_peak_below_its_bound(case):
    spec = gen_random(*CASES[case])
    report, peak = traced_peak(lambda: run(spec))
    assert report.passed
    assert peak < RUN_PEAK_BOUNDS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_stability_suite_peak_below_its_bound(case):
    matrices = gen_random(*CASES[case]).matrices
    if case == "general":
        inv = make_involution(matrices["J"])
        result = associate_general(matrices["A"], matrices["H"], inv)
    else:
        problem = offdiag_problem(matrices["A_plus"], matrices["A_minus"], matrices["T"])
        result = assemble_offdiag(problem)
    weight, operator, decomp = result.weight, result.operator, result.decomposition
    # The copies are made under tracing and owned by the suite alone, so the peak counts
    # the inputs and drops as the suite frees them.
    report, peak = traced_peak(
        lambda: _stability([copied(weight), operator.copy(), copied(decomp)], 1)
    )
    assert all(report.conditions.values())
    assert peak < SUITE_PEAK_BOUND
    # A caller that keeps its references frees nothing early and gets the same report.
    assert _stability([weight, operator, decomp], 1) == report
