"""No entry point writes into an array its caller passed in.

The library builds its n x n products in place, on arrays it made itself.  These
tests snapshot the bytes of every array a caller hands over, run the entry point,
and require every byte to be unchanged.  The symmetric inputs carry an asymmetry at
rounding level, which validation accepts, so symmetrizing one in place would show.
"""

import dataclasses

import numpy as np
import pytest

from formrep import (
    assemble_offdiag,
    associate_general,
    gen_random,
    make_involution,
    offdiag_problem,
    run,
    stability_suite,
)

CASES = {
    "general": ("general", 24, 1),
    "general-canonical-probes": ("general", 9, 2),
    "offdiag": ("offdiag", (12, 10), 1),
}


def rounded(spec):
    """``spec`` with an asymmetric perturbation of a few eps on each square matrix."""
    rng = np.random.default_rng(11)
    for name, mat in spec.matrices.items():
        if mat.shape[0] == mat.shape[1]:
            scale = np.finfo(np.float64).eps * np.max(np.abs(mat))
            spec.matrices[name] = mat + scale * rng.standard_normal(mat.shape)
            assert not np.array_equal(spec.matrices[name], spec.matrices[name].T)
    return spec


def arrays(value, path="arg"):
    """``(path, array)`` for every array in ``value``, through dataclasses, tuples and lists."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from arrays(getattr(value, field.name), f"{path}.{field.name}")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from arrays(item, f"{path}[{i}]")


def snapshot(*values):
    return {path: (arr.dtype, arr.shape, arr.tobytes()) for path, arr in arrays(list(values))}


def assert_unchanged(call, *values):
    before = snapshot(*values)
    assert before, "nothing to watch"
    call()
    assert snapshot(*values) == before


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_leaves_the_spec_matrices_unchanged(case):
    spec = rounded(gen_random(*CASES[case]))
    assert_unchanged(lambda: run(spec), *spec.matrices.values())


def test_associate_general_leaves_its_arguments_unchanged():
    mats = rounded(gen_random(*CASES["general"])).matrices
    inv = make_involution(mats["J"])
    assert_unchanged(lambda: associate_general(mats["A"], mats["H"], inv), mats["A"], mats["H"], inv)


def test_offdiag_entry_points_leave_their_arguments_unchanged():
    mats = rounded(gen_random(*CASES["offdiag"])).matrices
    blocks = mats["A_plus"], mats["A_minus"], mats["T"]
    assert_unchanged(lambda: offdiag_problem(*blocks), *blocks)
    problem = offdiag_problem(*blocks)
    assert_unchanged(lambda: assemble_offdiag(problem), problem)


def test_stability_suite_leaves_its_arguments_unchanged():
    mats = rounded(gen_random(*CASES["general"])).matrices
    operator = associate_general(mats["A"], mats["H"], make_involution(mats["J"])).operator
    assert_unchanged(lambda: stability_suite(mats["A"], operator), mats["A"], operator)
    # Complex Hermitian inputs take the conjugating path of every in-place symmetrization.
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    weight, other = raw @ raw.conj().T, raw + raw.conj().T
    assert_unchanged(lambda: stability_suite(weight, other), weight, other)
