"""The one threshold rule, ``_sign(values, n, norm, zero)``, at the decisions that read it.

Each case is an exact diagonal matrix: one deciding eigenvalue ``factor * tau`` and
``n - 1`` seeded entries of magnitude in ``[1, 3)``, so that ``tau = kernel_tol(n, norm)``
with ``norm`` the largest of those magnitudes.  The factors ``+-0.5`` fall inside the
closed zero band and ``+-2`` outside it.  Block margins and coupling kernels are tested
near their threshold in ``test_general.py`` and ``test_offdiag.py``.  The unit gap of
``B + sgn B`` is tested on a general run whose suite reads a moved operator.
"""

import numpy as np
import pytest

import formrep.harness as harness
from formrep import (
    InternalCheckError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    check_gap_hypothesis,
    gen_random,
    kernel_tol,
    make_involution,
    nullspace,
    run,
    sgn_matrix,
    sufficient_definite,
    weight_sqrt,
)
from formrep.spectral import _sign
from formrep.stability import _stability

FACTORS = [0.5, -0.5, 2.0, -2.0]
SEEDS = [0, 1, 2]
N = 6


def diagonal(seed, factor, signed=True):
    """``(diag(factor * tau, d), tau)``, the entries ``d`` of either sign if ``signed``."""
    rng = np.random.default_rng(seed)
    rest = rng.uniform(1.0, 3.0, N - 1)
    if signed:
        rest *= rng.choice([-1.0, 1.0], N - 1)
    tau = kernel_tol(N, float(np.max(np.abs(rest))))
    return np.diag(np.concatenate([[factor * tau], rest])), tau


def test_zero_band_is_closed_and_strict_outside():
    tau = kernel_tol(4, 3.0)
    above = np.nextafter(tau, np.inf)
    values = np.array([-above, -tau, -0.0, tau, above])
    assert _sign(values, 4, 3.0).tolist() == [-1.0, 0.0, 0.0, 0.0, 1.0]
    assert _sign(values, 4, 3.0, zero=-1.0).tolist() == [-1.0, -1.0, -1.0, -1.0, 1.0]
    assert _sign(values, 4, 3.0, scale=2.0).tolist() == [0.0] * 5


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("factor", FACTORS)
def test_weight_clamp_or_refusal(seed, factor):
    weight, tau = diagonal(seed, factor, signed=False)
    if factor < -1.0:
        with pytest.raises(NotPositiveSemidefiniteError, match=f"below -{tau:.3e}$"):
            weight_sqrt(weight)
        return
    root = weight_sqrt(weight)
    expected = np.sqrt(np.maximum(np.diag(weight), 0.0))  # a negative within tau clamps to 0
    np.testing.assert_allclose(np.diag(root), expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("factor", FACTORS)
def test_singular_coefficient(seed, factor):
    coeff, tau = diagonal(seed, factor)
    inv = make_involution(np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]))
    if abs(factor) < 1.0:
        with pytest.raises(SingularMatrixError, match=f"= {abs(factor) * tau:.3e}$"):
            check_gap_hypothesis(np.eye(N), coeff, inv)
    else:
        check_gap_hypothesis(np.eye(N), coeff, inv)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("factor", FACTORS)
def test_nullspace(seed, factor):
    mat, _ = diagonal(seed, factor)
    basis = nullspace(mat)
    if abs(factor) < 1.0:
        assert basis.dim == 1 and abs(basis.vectors[0, 0]) == 1.0
    else:
        assert basis.dim == 0


@pytest.mark.parametrize("zero_sign", [1, -1])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("factor", FACTORS)
def test_sgn_matrix_zero_sign(seed, factor, zero_sign):
    mat, _ = diagonal(seed, factor)
    expected = np.sign(np.diag(mat))
    if abs(factor) < 1.0:
        expected[0] = zero_sign
    np.testing.assert_allclose(sgn_matrix(mat, zero_sign), np.diag(expected), atol=1e-14)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("factor", FACTORS)
def test_definite_coefficient(seed, factor, sign):
    # H = sign * diag(factor * tau, d), d > 0: definite only when its least magnitude is
    # beyond tau with the sign of the rest.  B = H, whose sign is then sign * I.
    coeff, _ = diagonal(seed, factor, signed=False)
    assert sufficient_definite(sign * coeff, sign * coeff) == (factor > 1.0)


def move_unit_gap(monkeypatch, factor):
    """Have each run's suite read ``B - d v v*``, ``v`` a kernel vector of ``B``: ``B + sgn B``
    then has the eigenvalue ``1 - d``, ``d = factor * band``, ``band`` the suite's
    ``kernel_tol(n, 1 + ||B||, scale=2)``.  The returned dict receives ``d`` and ``band``."""
    found = {}

    def moved(owned, zero_sign):
        weight, operator, decomp = owned
        n, norm, vals = decomp.n, decomp.source_norm, decomp.eigenvalues
        k = int(np.argmin(np.abs(vals)))
        assert _sign(vals[k], n, norm) == 0  # mapped to zero_sign = +1
        found["band"] = kernel_tol(n, 1.0 + norm, scale=2.0)
        found["deficit"] = factor * found["band"]
        vec = decomp.eigenvectors[:, k : k + 1]
        operator = operator - found["deficit"] * (vec @ vec.T)
        return _stability([weight, operator, decomp], zero_sign)

    monkeypatch.setattr(harness, "_stability", moved)
    return found


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "factor, tol_scale, report_passes",
    [(0.5, 1.0, True), (0.5, 0.25, False), (2.0, 1.0, None)],
)
def test_unit_gap_deficit(monkeypatch, seed, factor, tol_scale, report_passes):
    # At 0.5 of the band both decisions accept; tol_scale 0.25 moves only the report's band,
    # to 0.25 of the suite's, and the report check fails.  At twice the band the suite raises.
    found = move_unit_gap(monkeypatch, factor)
    spec = gen_random("general", 24, seed)
    spec.tolerances["tol_scale"] = tol_scale
    if report_passes is None:
        with pytest.raises(InternalCheckError, match="lost its unit gap"):
            run(spec)
        return
    report = run(spec)
    deficit = 1.0 - report.stability["shifted_gap"]
    assert abs(deficit - found["deficit"]) <= 0.1 * found["band"]
    assert report.checks["shifted_unit_gap"] is report_passes
