"""One run factors each distinct matrix once.

Counts the dense factorizations numpy performs during one ``harness.run``.
``numpy.linalg.norm(M, 2)`` takes its SVD through the ``svd`` of the module
that defines it, so that module's binding is counted too.  A helper that
decomposes a matrix the run has already decomposed raises a count here.
"""

import collections
import importlib

import numpy as np
import pytest

import formrep.harness as harness
from formrep import gen_random, run

#: (spec arguments, expected counts).  ``assemble_offdiag`` runs once per
#: offdiag run; the two block weights, ``T T*``, ``T* T``, the operator (in
#: assembly and once for the kernel oracle and the stability suite) and the
#: two kernel intersections account for its eight ``eigh`` calls.
CASES = {
    "general": (
        ("general", 16, 3),
        {"eigh": 3, "eigvalsh": 6, "svd": 19, "assemble_offdiag": 0},
    ),
    "offdiag": (
        ("offdiag", (6, 5), 1, 0.5, (2, 1)),
        {"eigh": 8, "eigvalsh": 2, "svd": 40, "assemble_offdiag": 1},
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
    monkeypatch.setattr(
        harness, "assemble_offdiag", counted("assemble_offdiag", harness.assemble_offdiag)
    )
    return tally


@pytest.mark.parametrize("case", sorted(CASES))
def test_factorization_counts(case, counts):
    args, expected = CASES[case]
    spec = gen_random(*args)
    counts.clear()
    report = run(spec)
    assert report.passed
    assert {name: counts[name] for name in expected} == expected
