"""Acceptance suite: one numbered criterion group per test, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.

Criterion 3 has two parts.  3a checks that the certified interval
``(-c, c)`` lies in the resolvent set of ``B + J``.  3b checks the bounds
the construction guarantees for the certified radius ``c``:

- lower clause, ``alpha* <= c`` on every instance: the plus block of the
  shifted coefficient is at least ``alpha* A/(1+A) + 1/(1+A) >= alpha*``
  (as ``alpha* <= 1``), the minus block at most ``-alpha*``, and
  off-diagonal coupling cannot move spectrum into ``(-alpha*, alpha*)``;
- upper clause, ``c <= 1`` whenever the weight has a kernel: a unit
  vector ``x`` in ``ker A`` has ``H_shifted x = J x``, so some eigenvalue
  of ``H_shifted`` has magnitude at most ``||J x|| = 1``.
"""

import time

import numpy as np
import pytest

from formrep import (
    ProblemSpec,
    assemble_offdiag,
    associate_general,
    direct_coefficient,
    gen_random,
    kernel_via_theorem,
    make_involution,
    min_abs_eig,
    nullspace,
    offdiag_problem,
    op_norm,
    resolvent_identity_residual,
    run,
    sgn_matrix,
    shifted_coefficient,
    spectral_identity_residual,
    stability_suite,
    sufficient_definite,
    sufficient_semibounded,
    weight_sqrt,
)

GENERAL_COUNT = 200
OFFDIAG_COUNT = 100


def announce(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def general_ensemble():
    """200 seeded gap-certified instances with their assembled results."""
    alphas = (0.3, 0.5, 0.8, 1.0)
    instances = []
    start = time.perf_counter()
    for seed in range(GENERAL_COUNT):
        n = 2 + (7 * seed) % 31  # 2..32
        spec = gen_random("general", n, seed, alphas[seed % 4])
        inv = make_involution(spec.matrices["J"])
        result = associate_general(
            spec.matrices["A"], spec.matrices["H"], inv, probe_seed=seed
        )
        assert result.certificate.satisfied
        instances.append((spec.matrices["A"], spec.matrices["H"], inv, result))
    elapsed = time.perf_counter() - start
    return instances, elapsed


@pytest.fixture(scope="module")
def offdiag_ensemble():
    """100 seeded off-diagonal problems with block dims in [4, 20]."""
    problems = []
    for seed in range(OFFDIAG_COUNT):
        dim_plus = 4 + (3 * seed) % 17
        dim_minus = 4 + (5 * seed) % 17
        kdims = (seed % 4, (seed // 4) % 4)
        spec = gen_random("offdiag", (dim_plus, dim_minus), seed, kernel_dims=kdims)
        problems.append(
            offdiag_problem(
                spec.matrices["A_plus"], spec.matrices["A_minus"], spec.matrices["T"]
            )
        )
    return problems


def test_criterion_1_first_representation(general_ensemble):
    instances, elapsed = general_ensemble
    worst = max(result.first_rep_residual for *_, result in instances)
    ok = worst <= 1e-10 and elapsed < 10.0
    announce(1, ok, f"worst first-representation residual {worst:.3e}, build {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_second_representation(general_ensemble):
    instances, _ = general_ensemble
    worst = max(result.second_rep_residual for *_, result in instances)
    ok = worst <= 1e-10
    announce(2, ok, f"worst second-representation residual {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_3a_gap_interval(general_ensemble):
    instances, _ = general_ensemble
    worst = min(
        min_abs_eig(result.operator + inv.matrix) - result.gap_radius
        for *_, inv, result in instances
    )
    ok = worst >= -1e-8
    announce("3a", ok, f"worst interval margin {worst:.3e}")
    assert worst >= -1e-8


def test_criterion_3b_certificate_upper_bound(general_ensemble):
    instances, _ = general_ensemble
    lower = []  # (c - alpha*, seed) on every instance
    upper = []  # (c - 1, seed) on instances whose weight has a kernel
    for seed, (weight, _, _, result) in enumerate(instances):
        radius = result.gap_radius
        lower.append((radius - result.certificate.alpha_star, seed))
        if nullspace(weight).dim > 0:
            upper.append((radius - 1.0, seed))
    lower_margin, lower_seed = min(lower)
    upper_excess, upper_seed = max(upper, default=(np.inf, None))
    ok = bool(upper) and lower_margin >= -1e-10 and upper_excess <= 1e-10
    announce(
        "3b",
        ok,
        f"min c - alpha* {lower_margin:.3e} (seed {lower_seed}), "
        f"max c - 1 {upper_excess:.3e} (seed {upper_seed}) "
        f"over {len(upper)} weights with a kernel",
    )
    assert lower_margin >= -1e-10, (
        f"lower clause c >= alpha* - 1e-10 failed at seed {lower_seed}: "
        f"c - alpha* = {lower_margin:.3e}.  Both blocks of the shifted "
        "coefficient keep the margin alpha* <= 1, so c never falls below it."
    )
    assert upper, "upper clause is vacuous: no weight in the ensemble has a kernel"
    assert upper_excess <= 1e-10, (
        f"upper clause c <= 1 + 1e-10 failed at seed {upper_seed}: "
        f"c - 1 = {upper_excess:.3e}.  A unit x in ker A has "
        "H_shifted x = J x, so min |eig H_shifted| <= 1."
    )


def test_criterion_4_kernel_theorem(offdiag_ensemble):
    worst_angle = 0.0
    for problem in offdiag_ensemble:
        report = kernel_via_theorem(problem)
        assert report.theorem_kernel.dim == report.oracle_kernel.dim
        worst_angle = max(worst_angle, report.principal_angle)
    # the three worked instances
    worked = [
        (np.diag([0.0, 1.0]), np.diag([0.0, 2.0]), np.zeros((2, 2)), 2),
        (np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), np.array([[0.0, 0.0], [0.0, 1.0]]), 2),
        (np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 0.0]]), 0),
    ]
    for plus, minus, coupling, expected_dim in worked:
        report = kernel_via_theorem(offdiag_problem(plus, minus, coupling))
        assert report.theorem_kernel.dim == expected_dim
        assert report.oracle_kernel.dim == expected_dim
        worst_angle = max(worst_angle, report.principal_angle)
    ok = worst_angle <= 1e-8
    announce(4, ok, f"dims matched on {OFFDIAG_COUNT}+3 instances, worst angle {worst_angle:.3e}")
    assert worst_angle <= 1e-8


def test_criterion_5_direct_coefficient_identity(offdiag_ensemble):
    worst = 0.0
    for problem in offdiag_ensemble:
        direct = direct_coefficient(problem)
        weight = problem.full_weight()
        grown = weight_sqrt(weight + np.eye(problem.dim))
        rebuilt = grown @ direct @ grown
        operator = assemble_offdiag(problem).operator
        scale = (1.0 + op_norm(weight)) * (1.0 + problem.coupling_norm)
        worst = max(worst, float(np.linalg.norm(rebuilt - operator, 2)) / scale)
    ok = worst <= 1e-10
    announce(5, ok, f"worst direct-coefficient identity residual {worst:.3e} (relative)")
    assert worst <= 1e-10


def test_criterion_6_swap_family_sweep():
    start = time.perf_counter()
    spec = ProblemSpec(kind="family", family_name="counterexample", sizes=[1, 2, 3, 4, 5])
    diagnostics = run(spec).family
    elapsed = time.perf_counter() - start
    none_certified = not any(diagnostics["gap_search_outcomes"])
    norm_defect = max(abs(v - 1.0) for v in diagnostics["norm_sequences"]["operator"])
    cond_defect = max(
        abs(cond - (size + 1) ** 2) / (size + 1) ** 2
        for size, cond in zip(
            diagnostics["truncation_sizes"], diagnostics["norm_sequences"]["weight_condition"]
        )
    )
    ok = none_certified and norm_defect <= 1e-12 and cond_defect <= 1e-10 and elapsed < 30.0
    announce(
        6,
        ok,
        f"sweep sizes 1..5 ({sum(2 ** (2 * s) - 2 for s in range(1, 6))} splittings), "
        f"norm defect {norm_defect:.1e}, cond defect {cond_defect:.1e}, {elapsed:.2f}s",
    )
    assert none_certified
    assert norm_defect <= 1e-12
    assert cond_defect <= 1e-10
    assert elapsed < 30.0


def test_criterion_7_stability_suite(general_ensemble):
    instances, _ = general_ensemble
    worst_inv = 0.0
    worst_pair = 0.0
    worst_gap = np.inf
    for weight, _, _, result in instances:
        report = stability_suite(weight, result.operator, zero_sign=1)
        worst_inv = max(worst_inv, report.involution_residual)
        worst_pair = max(worst_pair, report.inverse_pair_residual)
        worst_gap = min(worst_gap, report.shifted_gap)
        assert all(report.conditions.values())
    ok = worst_inv <= 1e-10 and worst_pair <= 1e-10 and worst_gap >= 1.0 - 1e-10
    announce(
        7,
        ok,
        f"worst involution residual {worst_inv:.3e}, inverse-pair {worst_pair:.3e}, "
        f"smallest shifted gap {worst_gap:.12f}",
    )
    assert worst_inv <= 1e-10
    assert worst_pair <= 1e-10
    assert worst_gap >= 1.0 - 1e-10


def test_criterion_8_sufficient_criteria(general_ensemble):
    # 50 definite-coefficient instances
    worst_sign_defect = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = 2 + seed % 15
        frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
        weight_vals = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.5, 4.0, n))
        weight = (frame * weight_vals) @ frame.T
        coeff_frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
        coeff = (coeff_frame * rng.uniform(0.1, 3.0, n)) @ coeff_frame.T
        root = weight_sqrt(weight)
        operator = root @ coeff @ root
        assert sufficient_definite(coeff, operator)
        defect = float(np.linalg.norm(sgn_matrix(operator, 1) - np.eye(n), 2))
        worst_sign_defect = max(worst_sign_defect, defect)

    # 50 semibounded instances through the certificate chain
    instances, _ = general_ensemble
    max_steps = 0
    for weight, coeff, inv, result in instances[:50]:
        ok, found = sufficient_semibounded(
            weight, shifted_coefficient(weight, coeff, inv)[1], result.operator, inv
        )
        assert ok
        start_c = op_norm(result.operator) + 1.0
        steps = int(round(np.log2(found / start_c))) + 1
        max_steps = max(max_steps, steps)
    ok = worst_sign_defect <= 1e-10 and max_steps <= 20
    announce(
        8,
        ok,
        f"worst sign defect {worst_sign_defect:.3e}, max doubling steps {max_steps}",
    )
    assert worst_sign_defect <= 1e-10
    assert max_steps <= 20


def test_criterion_9_utility_identities():
    worst_resolvent = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        n = 3 + seed % 10
        raw_a = rng.standard_normal((n, n))
        raw_b = rng.standard_normal((n, n))
        first = (raw_a + raw_a.T) / 2.0
        second = (raw_b + raw_b.T) / 2.0
        point = op_norm(first) + op_norm(second) + 1.0
        scale = 1.0 + op_norm(first) + op_norm(second)
        worst_resolvent = max(
            worst_resolvent, resolvent_identity_residual(first, second, point) / scale
        )
    worst_spectral = 0.0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        p, q = rng.integers(1, 11, size=2)
        left = rng.standard_normal((p, q))
        right = rng.standard_normal((q, p))
        worst_spectral = max(worst_spectral, spectral_identity_residual(left, right))
    ok = worst_resolvent <= 1e-12 and worst_spectral <= 1e-10
    announce(
        9,
        ok,
        f"worst resolvent residual {worst_resolvent:.3e} (relative), "
        f"worst product-spectrum distance {worst_spectral:.3e}",
    )
    assert worst_resolvent <= 1e-12
    assert worst_spectral <= 1e-10
