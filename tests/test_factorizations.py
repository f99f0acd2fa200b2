"""One run factors each distinct matrix once.

Counts the dense factorizations numpy performs during one ``harness.run``.
``numpy.linalg.norm(M, 2)`` takes its SVD through the ``svd`` of the module
that defines it, so that module's binding is counted too.  ``apply_fn`` and
``symmetrize`` are counted wherever a formrep module binds them.  A helper
that decomposes a matrix the run has already decomposed, takes an SVD where
a symmetric eigensolve or a Frobenius norm decides, or validates a matrix
that was validated or built already, raises a count here.
"""

import collections
import importlib
from dataclasses import asdict

import numpy as np
import pytest

import formrep.harness as harness
import formrep.offdiag as offdiag
import formrep.spectral as spectral
from formrep import (
    assemble_offdiag,
    associate_general,
    check_gap_hypothesis,
    gen_counterexample,
    gen_random,
    make_involution,
    offdiag_problem,
    run,
)
from formrep.stability import _stability

#: (spec arguments, expected counts).  ``assemble_offdiag`` runs once per
#: offdiag run, and the closed-form ``B`` (``_associated``) is built once, in
#: it: the direct-coefficient check compares diagonal blocks only.  The two
#: block weights, the operator (decomposed once in assembly; the kernel
#: oracle and the stability suite read that decomposition from the result)
#: account for its three ``eigh`` calls.
#: ``ker T*``, ``ker T`` and the gap radius ``(1 + s_min^2)^(1/2)`` come from
#: one full SVD of ``T``, so an offdiag run's four ``eigvalsh`` calls are
#: the stability suite's.  The general path takes no SVD: the norm of
#: ``[J, A]`` comes from its Gram matrix.  The offdiag SVDs are that one of ``T``,
#: the SVDs of the two kernel intersections' k-column rejections and the
#: reported norms of non-symmetric matrices: the coupling norm (kept as
#: ``norm(T, 2)``, the SVD work formbench's tracer counts) and the two sines of
#: the principal angle.  The two annihilator pairings are settled by their
#: Frobenius norms.  The suite takes
#: no SVD and maps no function with ``apply_fn``; its four ``eigvalsh`` calls
#: are the unit gap, the norms of ``X~`` and ``X`` (``||Y|| = 1 / min |eig X|``, as
#: ``Y = X^-1``) and the Gram matrix of the sign conjugate; its two residuals are
#: Frobenius norms.
#: A general run maps no function with ``apply_fn``: every function of the weight
#: is a diagonal in its eigenbasis ``W``, where ``H`` and ``J`` are taken once each.
#: Nor does an offdiag run: it forms the functions of its two weight blocks, never
#: of the n x n weight, from their eigenvalue arrays: ``(A_pm + I)^(1/2)`` once per
#: problem, ``A_pm^(1/2)`` for the form and ``(A_pm + I)^-1`` for the direct
#: coefficient.  The two annihilators apply ``(A_pm + I)^(-1/2)`` to k columns in the
#: block's eigenbasis.  The second representation residual is read in the eigenbasis of
#: ``B`` with no map.
#: ``[J, A]`` of a general run is settled by its Frobenius norm, with no
#: ``eigvalsh``.  ``symmetrize`` validates each input matrix where it enters:
#: ``J``, ``A`` and ``H`` of a general run; the two weight blocks of an offdiag
#: run.  Matrices the library builds are averaged, if at all, without
#: validation.
CASES = {
    "general": (
        ("general", 16, 3),
        {
            "eigh": 3, "eigvalsh": 9, "svd": 0, "apply_fn": 0, "symmetrize": 3,
            "assemble_offdiag": 0, "_associated": 0,
        },
    ),
    "offdiag": (
        ("offdiag", (6, 5), 1, 0.5, (2, 1)),
        {
            "eigh": 3, "eigvalsh": 4, "svd": 6, "apply_fn": 0, "symmetrize": 2,
            "assemble_offdiag": 1, "_associated": 1,
        },
    ),
}


@pytest.fixture
def counts(monkeypatch):
    tally = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    counted_svd = counted("svd", np.linalg.svd)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(importlib.import_module("numpy.linalg._linalg"), "svd", counted_svd)
    counted_apply = counted("apply_fn", spectral.apply_fn)
    for module in ("spectral", "general"):
        monkeypatch.setattr(f"formrep.{module}.apply_fn", counted_apply)
    counted_symmetrize = counted("symmetrize", spectral.symmetrize)
    for module in ("spectral", "involution", "general", "offdiag", "stability"):
        monkeypatch.setattr(f"formrep.{module}.symmetrize", counted_symmetrize)
    monkeypatch.setattr(
        harness, "assemble_offdiag", counted("assemble_offdiag", harness.assemble_offdiag)
    )
    monkeypatch.setattr(offdiag, "_associated", counted("_associated", offdiag._associated))
    return tally


@pytest.mark.parametrize("case", sorted(CASES))
def test_factorization_counts(case, counts):
    args, expected = CASES[case]
    spec = gen_random(*args)
    counts.clear()
    report = run(spec)
    assert report.passed
    assert {name: counts[name] for name in expected} == expected


def test_refused_run_certifies_once(counts):
    # The refusal carries its certificate: J and A are decomposed once, H and its blocks once.
    spec = gen_counterexample(3)
    spec.force = False
    matrices = spec.matrices
    cert = check_gap_hypothesis(matrices["A"], matrices["H"], make_involution(matrices["J"]))
    counts.clear()
    report = run(spec)
    assert {name: counts[name] for name in ("eigh", "eigvalsh")} == {"eigh": 2, "eigvalsh": 3}
    assert report.checks == {"hypothesis_certified": False}
    assert report.certificate == asdict(cert)
    assert report.representation == {"refusal": f"spectral-gap condition refused: {cert.refusal}"}
    assert report.exit_code == 1


def built(case):
    """The result of assembling the case's problem, and its weight matrix."""
    matrices = gen_random(*CASES[case][0]).matrices
    if case == "general":
        inv = make_involution(matrices["J"])
        return associate_general(matrices["A"], matrices["H"], inv), matrices["A"]
    problem = offdiag_problem(matrices["A_plus"], matrices["A_minus"], matrices["T"])
    return assemble_offdiag(problem), problem.full_weight()


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_carry_their_decompositions(case):
    result, weight = built(case)
    for decomp, mat in ((result.decomposition, result.operator), (result.weight, weight)):
        scale = 1e-12 * mat.shape[0] * np.linalg.norm(mat, 2)
        assert np.linalg.norm(decomp.reconstruct() - mat, 2) <= scale


@pytest.mark.parametrize("case", sorted(CASES))
def test_stability_suite_takes_no_svd_and_no_callback_map(case, counts):
    result, _ = built(case)
    counts.clear()
    _stability([result.weight, result.operator, result.decomposition], 1)
    # eigvalsh: the unit gap, the norms of X~ and X, and the sign conjugate's Gram matrix.
    assert {name: counts[name] for name in ("eigh", "eigvalsh", "svd", "apply_fn")} == {
        "eigh": 0, "eigvalsh": 4, "svd": 0, "apply_fn": 0
    }
