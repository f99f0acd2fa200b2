"""Peak working set of a run and of its stability suite, in units of ``n^2`` doubles.

Each n x n matrix of a run lives from its first use to its last.  The run
echoes the spec first and then pops each matrix from a copy of the spec's
dict at its last read, so a matrix is freed there when the caller keeps no
reference to the spec, as ``cli.main`` keeps none: a general run frees ``J``
once the involution is made and ``A`` and ``H`` once ``associate_general``
has certified them, and keeps only ``J``'s symmetrized matrix for the margin
check; an offdiag run frees the blocks' copies into the problem, which holds
no n x n array (its weight frame is built on access, once, after the
probes), and checks the direct coefficient ``C`` before ``B`` exists.  The
run releases the involution and the offdiag problem before the suite and
hands the suite the only references to ``B``, its eigenvectors ``V`` and the
weight's eigenvectors ``W``: the suite frees ``B`` once ``B + sgn B`` is
formed, and ``W`` and ``V`` once the forward pair ``F`` and ``Q = W* V``
exist.  Traced peaks are taken on a second call (the first warms numpy's
caches).

Measured, with the problem built before tracing and kept by the caller: a
run peaks at 8.36 n^2 (general n=384, in the probe phase, whose
``min(2n, 256)`` probe pairs are drawn in one array) and 6.74 n^2 (offdiag
p=q=192, in ``assemble_offdiag``'s probe phase).  Handed a spec whose only
reference is the argument, its copies made under tracing, a run peaks at
8.58 and 6.99 n^2; an in-process ``formrep verify``, the loaded spec counted,
at 8.63 and 7.03 n^2.  The suite, counting the three inputs it owns, peaks at
5.07 n^2.  Before the run owned the spec's matrices, a kept spec peaked at
9.36 and 7.74 n^2, a handed-over one at 12.36 and 8.49 n^2 and ``verify`` at
12.41 and 8.50 n^2: the run held the loaded matrices, the involution's two
basis arrays and the offdiag problem's weight frame to its end.  Before the
suite owned its inputs, both runs peaked in the suite at 9.0 n^2 (the general
run at 9.4 n^2 in its probe phase), and the suite at 9.0 n^2 with its inputs
(6.0 n^2 above them).  A general run peaked at 12.1 n^2 while it mapped
``A^(1/2)``, ``(A+I)^(1/2)`` and the two factors of the shifted coefficient
as n x n matrices instead of reading them as diagonals in the eigenbasis of
``A``.  Earlier, the two peaks were 13.1 and 12.7 n^2 while a general run
also formed an unread self-adjoint copy of ``R H R`` and an offdiag problem
held ``(A+I)^(1/2)`` and ``J`` as n x n matrices; 19.0 and 21.1 n^2 when the
suite held all its matrices.
"""

import contextlib
import dataclasses
import io
import tracemalloc

import pytest

from formrep import (
    assemble_offdiag,
    associate_general,
    gen_random,
    make_involution,
    offdiag_problem,
    run,
    save_spec,
)
from formrep.cli import main
from formrep.spectral import SpectralDecomposition
from formrep.stability import _stability

#: Both problems have dimension n = 384.
N = 384
CASES = {"general": ("general", N, 0), "offdiag": ("offdiag", (N // 2, N // 2), 0)}
#: Traced peak bound of one run on a spec its caller keeps, in n^2 doubles, per case
#: (measured 8.36 and 6.74).
RUN_PEAK_BOUNDS = {"general": 8.5, "offdiag": 6.9}
#: The same bound when the run is handed the only reference (measured 8.58 and 6.99).
HANDED_PEAK_BOUNDS = {"general": 9.0, "offdiag": 7.2}
#: Traced peak bound of ``formrep verify``, the loaded spec counted (measured 8.63 and 7.03).
VERIFY_PEAK_BOUNDS = {"general": 9.0, "offdiag": 7.3}
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


def fresh(spec):
    """A copy of ``spec`` with its own matrices, whose only reference goes to the caller."""
    return dataclasses.replace(spec, matrices={k: m.copy() for k, m in spec.matrices.items()})


def without_wall_time(report):
    return {**report.to_dict(), "wall_time_s": None}


@pytest.mark.parametrize("case", sorted(CASES))
def test_handed_over_run_frees_the_matrices(case):
    """The copies are made under tracing and passed to ``run`` with no other reference, so the
    peak counts them and drops as the run pops each one at its last read."""
    spec = gen_random(*CASES[case])
    report, peak = traced_peak(lambda: run(fresh(spec)))
    assert report.passed
    assert peak < HANDED_PEAK_BOUNDS[case]
    # A caller that keeps its spec frees nothing early and gets the same report.
    names = sorted(spec.matrices)
    assert without_wall_time(run(spec)) == without_wall_time(report)
    assert sorted(spec.matrices) == names


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_peak_below_its_bound(case, tmp_path):
    """``formrep verify`` in this process, loading the file under tracing: the CLI keeps no
    reference to the loaded spec, so the run frees each matrix after its last read."""
    path = str(tmp_path / "spec.json")
    save_spec(gen_random(*CASES[case]), path)

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["verify", path])

    code, peak = traced_peak(verify)
    assert code == 0
    assert peak < VERIFY_PEAK_BOUNDS[case]


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
