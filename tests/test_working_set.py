"""Peak working set of a run and of its stability suite, in units of ``n^2`` doubles.

Each n x n matrix of a run lives from its first use to its last: the
stability suite builds its matrices one after another and drops each after
its last use, the probe pairs are drawn one block at a time, and the run
releases the involution and the offdiag problem before the suite (the
result holds only ``B`` and the decompositions the suite reads).  Traced
peaks are taken on a second call (the first warms numpy's caches), with the
inputs built before tracing starts.  Measured: a run peaks at 12.1 n^2
(general n=384) and 10.0 n^2 (offdiag p=q=192).  They were 13.1 and 12.7 n^2
while a general run also formed an unread self-adjoint copy of ``R H R`` and
an offdiag problem held ``(A+I)^(1/2)`` and ``J`` as n x n matrices and mapped an
n x n ``A^(1/2)``; 19.0 and 21.1 n^2 when the suite held all its matrices and
the probes were drawn in one array (15.1 and 15.4 n^2 with only the probes
stacked again).  The suite alone peaks at 7.0 n^2 above its inputs, 11.0 n^2
when it held all its matrices, and 8.0 n^2 when any one of ``B + sgn B``,
the forward pair ``F`` and ``Y`` outlives its last use.
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
from formrep.stability import _stability

#: Both problems have dimension n = 384.
N = 384
CASES = {"general": ("general", N, 0), "offdiag": ("offdiag", (N // 2, N // 2), 0)}
#: Traced peak bound of one run, in n^2 doubles, per case.
RUN_PEAK_BOUNDS = {"general": 12.5, "offdiag": 11.0}


def traced_peak(call):
    """``call()``'s value and its traced peak in n^2 doubles, on a second call."""
    call()
    tracemalloc.start()
    try:
        value = call()
        return value, tracemalloc.get_traced_memory()[1] / (8 * N * N)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_peak_below_its_bound(case):
    spec = gen_random(*CASES[case])
    report, peak = traced_peak(lambda: run(spec))
    assert report.passed
    assert peak < RUN_PEAK_BOUNDS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_stability_suite_peak_below_seven_and_a_half_n_squared(case):
    matrices = gen_random(*CASES[case]).matrices
    if case == "general":
        inv = make_involution(matrices["J"])
        result = associate_general(matrices["A"], matrices["H"], inv)
    else:
        problem = offdiag_problem(matrices["A_plus"], matrices["A_minus"], matrices["T"])
        result = assemble_offdiag(problem)
    inputs = result.weight, result.operator, result.decomposition
    report, peak = traced_peak(lambda: _stability(*inputs, 1))
    assert all(report.conditions.values())
    assert peak < 7.5
