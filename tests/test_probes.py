"""The probe stage against the per-pair code it replaced.

The pipelines draw ``min(2n, 256)`` random probe pairs in one draw from a seeded
stream, the first pairs of the per-pair stream, and ``default_probes`` returns them
as the columns of ``(X, Y)``; ``loop_probes`` is the per-pair loop they replaced,
the oracle for the draw.  The second representation residual pairs ``V* x`` with
``w V* y`` in the eigenbasis of ``B = V diag(lam) V*``, ``w = sign(lam) |lam|``;
``mapped_side`` builds ``|B|^(1/2)`` and ``sign(B)`` with ``apply_fn`` and is the
oracle for that side.  No probe array is wider than ``n x 288``, so the peak traced
memory of ``associate_general`` is bounded in units of ``n^2`` doubles.  A defect
of ``1e-6 ||B||`` planted in ``B`` before the probes fails a run of either kind at
n = 512 and 1024, where the 256 pairs are a subset of the former ``2n``.
"""

import tracemalloc

import numpy as np
import pytest

from formrep import associate_general, default_probes, gen_random, make_involution, run
from formrep import general, offdiag
from formrep.general import (
    _PROBE_PAIRS,
    CANONICAL_PROBE_LIMIT,
    _pairing,
    _probe_residuals,
    _represented_side,
)
from formrep.spectral import _eigh, _sign, apply_fn
from test_norm_oracle import ORACLE_CASES, assembled


def unit(vec):
    """``vec / ||vec||``, the norm summed in the order of the stacked draw's ``einsum``."""
    return vec / np.sqrt(np.einsum("k,k->", vec, vec))


def loop_probes(n, seed=0):
    """Probe pairs drawn one pair at a time, as a list."""
    rng = np.random.default_rng(seed)
    pairs = min(2 * n, _PROBE_PAIRS)
    probes = [(unit(rng.standard_normal(n)), unit(rng.standard_normal(n))) for _ in range(pairs)]
    if n <= CANONICAL_PROBE_LIMIT:
        eye = np.eye(n)
        probes.extend((eye[:, i], eye[:, j]) for i in range(n) for j in range(n))
    return probes


def mapped_side(decomp):
    """``<|B|^(1/2) x, sign(B) |B|^(1/2) y>`` with both factors mapped by ``apply_fn``."""
    abs_root = apply_fn(decomp, lambda lam: np.sqrt(abs(lam)))
    zero_sign = apply_fn(decomp, lambda lam: _sign(lam, decomp.n, decomp.source_norm))
    return lambda xs, ys: _pairing(abs_root @ xs, zero_sign @ (abs_root @ ys))


@pytest.mark.parametrize("n", [3, 16, 17, 384])
def test_stacked_draw_equals_the_loop(n):
    xs, ys = default_probes(n, seed=n)
    oracle = loop_probes(n, seed=n)
    assert xs.shape == ys.shape == (n, len(oracle))
    assert len(oracle) == min(2 * n, 256) + (n * n if n <= CANONICAL_PROBE_LIMIT else 0)
    np.testing.assert_allclose(xs, np.column_stack([x for x, _ in oracle]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(ys, np.column_stack([y for _, y in oracle]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 16, 17, 128, 200, 384])
def test_blocked_draw_equals_the_stacked_draw(n):
    # The one draw is the first min(2n, 256) pairs of the per-pair stream, bit for bit.
    xs, ys = default_probes(n, seed=n)
    oracle = loop_probes(n, seed=n)
    assert np.array_equal(xs, np.column_stack([x for x, _ in oracle]))
    assert np.array_equal(ys, np.column_stack([y for _, y in oracle]))


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_eigenbasis_side_matches_the_mapped_side(case):
    result, _ = assembled(case)
    decomp = result.decomposition
    scale = decomp.source_norm
    # The oracle stands in for the form: the residual is the normalized gap of the two sides.
    gap = _probe_residuals(
        default_probes(decomp.n, 0), scale, mapped_side(decomp), _represented_side(decomp)
    )[0]
    assert gap <= 1e-12


def test_probe_stage_memory_is_blocked():
    # Measured peaks at n=512: 15.6 n^2 doubles; 26.2 n^2 when every probe product was n x 2n.
    n = 512
    matrices = gen_random("general", n, 0).matrices
    inv = make_involution(matrices["J"])
    tracemalloc.start()
    try:
        associate_general(matrices["A"], matrices["H"], inv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * n * n * 8


def plant_rank_one_defect(monkeypatch):
    """Add ``1e-6 ||B||`` times a seeded rank-one unit projector to ``B`` before the probes,
    in both pipelines; the result's decomposition is of the defective ``B``."""
    probed = general._probed

    def defective(operator, decomp, *args, **fields):
        direction = np.random.default_rng(1).standard_normal(len(operator))
        direction /= np.linalg.norm(direction)
        moved = operator + 1e-6 * decomp.source_norm * np.outer(direction, direction)
        return probed(moved, _eigh(moved), *args, **fields)

    for module in (general, offdiag):
        monkeypatch.setattr(module, "_probed", defective)


@pytest.mark.parametrize("kind", ["general", "offdiag"])
@pytest.mark.parametrize("n", [512, 1024])
def test_planted_defect_fails_the_probes(monkeypatch, kind, n):
    # Measured residuals: 2.2e-9 to 5.3e-9, against the 1e-10 bound.
    spec = gen_random(kind, n if kind == "general" else (n // 2, n // 2), 0)
    plant_rank_one_defect(monkeypatch)
    report = run(spec)
    assert not report.checks["first_rep_residual"] and not report.checks["second_rep_residual"]
    assert report.exit_code == 1
