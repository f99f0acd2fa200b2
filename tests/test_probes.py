"""The blocked probe stage against the per-pair code it replaced.

The pipelines draw the probe pairs ``_PROBE_BLOCK`` at a time from one seeded
stream, and ``default_probes`` returns the same pairs stacked as the columns
of ``(X, Y)``; ``loop_probes`` is the per-pair loop they replaced and
``one_draw`` the single ``(2n, 2, n)`` draw, the oracles for the draw.  The
second representation residual pairs ``V* x`` with ``w V* y`` in the
eigenbasis of ``B = V diag(lam) V*``,
``w = sign(lam) |lam|``; ``mapped_side`` builds ``|B|^(1/2)`` and ``sign(B)``
with ``apply_fn`` and is the oracle for that side.  The residuals are
evaluated in column blocks, so the probe stage holds no ``n x 2n`` products:
the peak traced memory of ``associate_general`` is bounded in units of ``n^2``
doubles.
"""

import tracemalloc

import numpy as np
import pytest

from formrep import associate_general, default_probes, gen_random, make_involution
from formrep.general import (
    _PROBE_BLOCK,
    CANONICAL_PROBE_LIMIT,
    _pairing,
    _probe_blocks,
    _probe_residuals,
    _represented_side,
)
from formrep.spectral import _signum, apply_fn
from test_norm_oracle import ORACLE_CASES, assembled


def loop_probes(n, seed=0):
    """Probe pairs drawn one pair at a time, as a list."""
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(2 * n):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        probes.append((x / np.linalg.norm(x), y / np.linalg.norm(y)))
    if n <= CANONICAL_PROBE_LIMIT:
        eye = np.eye(n)
        probes.extend((eye[:, i], eye[:, j]) for i in range(n) for j in range(n))
    return probes


def one_draw(n, seed=0):
    """The random probe pairs of one ``(2n, 2, n)`` draw, as the columns of ``(X, Y)``."""
    draws = np.random.default_rng(seed).standard_normal((2 * n, 2, n))
    draws /= np.sqrt(np.einsum("ijk,ijk->ij", draws, draws))[..., None]
    return draws[:, 0].T, draws[:, 1].T


def mapped_side(decomp):
    """``<|B|^(1/2) x, sign(B) |B|^(1/2) y>`` with both factors mapped by ``apply_fn``."""
    abs_root = apply_fn(decomp, lambda lam: np.sqrt(abs(lam)))
    zero_sign = apply_fn(decomp, _signum(decomp, 0.0))
    return lambda xs, ys: _pairing(abs_root @ xs, zero_sign @ (abs_root @ ys))


@pytest.mark.parametrize("n", [3, 16, 17, 384])
def test_stacked_draw_equals_the_loop(n):
    xs, ys = default_probes(n, seed=n)
    oracle = loop_probes(n, seed=n)
    assert xs.shape == ys.shape == (n, len(oracle))
    assert len(oracle) == 2 * n + (n * n if n <= CANONICAL_PROBE_LIMIT else 0)
    np.testing.assert_allclose(xs, np.column_stack([x for x, _ in oracle]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(ys, np.column_stack([y for _, y in oracle]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 16, 17, 128, 200, 384])
def test_blocked_draw_equals_the_stacked_draw(n):
    blocks = list(_probe_blocks(n, seed=n))
    assert len(blocks) == -(-2 * n // _PROBE_BLOCK)  # the canonical pairs join the one block
    xs, ys = (np.hstack([block[side] for block in blocks]) for side in (0, 1))
    stacked = default_probes(n, seed=n)
    assert np.array_equal(xs, stacked[0]) and np.array_equal(ys, stacked[1])
    random_x, random_y = one_draw(n, seed=n)
    assert np.array_equal(xs[:, : 2 * n], random_x) and np.array_equal(ys[:, : 2 * n], random_y)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_eigenbasis_side_matches_the_mapped_side(case):
    result, _ = assembled(case)
    decomp = result.decomposition
    scale = decomp.source_norm
    # The oracle stands in for the form: the residual is the normalized gap of the two sides.
    gap = _probe_residuals(
        _probe_blocks(decomp.n, 0), scale, mapped_side(decomp), _represented_side(decomp)
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
