"""Off-diagonal problems: assembly, direct coefficient, kernel formula."""

import dataclasses

import numpy as np
import pytest

import formrep.offdiag as offdiag
from formrep import (
    InternalCheckError,
    MatrixValidationError,
    NotPositiveSemidefiniteError,
    SubspaceBasis,
    assemble_offdiag,
    canonical_involution,
    check_offdiagonal,
    direct_coefficient,
    form_evaluator,
    gen_random,
    kernel_via_theorem,
    kernel_tol,
    make_involution,
    nullspace,
    offdiag_problem,
    op_norm,
    orthonormal_columns,
    principal_angle,
    run,
)
from formrep.spectral import apply_fn, random_orthogonal


def random_problem(seed, dims=(4, 3), kernel_dims=(1, 1)):
    spec = gen_random("offdiag", dims, seed, kernel_dims=kernel_dims)
    return offdiag_problem(
        spec.matrices["A_plus"], spec.matrices["A_minus"], spec.matrices["T"]
    )


#: The parity offdiag cases, a large square case and both rectangular orders;
#: ``None`` as the seed means zero coupling.
CLOSED_FORM_CASES = [((p, q), seed) for p, q in ((6, 5), (24, 20)) for seed in range(3)] + [
    ((192, 192), 0),
    ((5, 9), 1),
    ((9, 5), 2),
    ((7, 4), None),
]


def closed_form_problem(dims, seed):
    """The problem of a ``CLOSED_FORM_CASES`` entry."""
    problem = random_problem(seed or 0, dims=dims)
    if seed is None:
        problem = offdiag_problem(problem.diag_plus, problem.diag_minus, np.zeros(dims))
    return problem


def coupling_with_singular_values(values):
    """A square coupling ``U diag(values) V*`` with seeded random orthogonal ``U``, ``V``."""
    rng = np.random.default_rng(11)
    return (random_orthogonal(values.size, rng) * values) @ random_orthogonal(values.size, rng).T


def coupling_kernel_pairs(problem):
    """``(basis, nullspace oracle)`` for ``ker T*`` and for ``ker T``."""
    coupling = problem.coupling
    return (
        (problem.adjoint_kernel, nullspace(coupling @ coupling.T)),
        (problem.coupling_kernel, nullspace(coupling.T @ coupling)),
    )


def similarity_route(problem):
    """``G [[I, T], [T*, -I]] G - J`` with ``G = (A+I)^(1/2)``: B as an n x n similarity."""
    root = apply_fn(problem.weight, lambda lam: np.sqrt(1.0 + lam))
    signs = canonical_involution(problem.dim_plus, problem.dim_minus).matrix
    return root @ (signs + problem.full_coupling()) @ root - signs


def graded_problem(floor, seed, dims=(24, 20), kernel_dim=2):
    """An offdiag problem on a graded spectrum, and the exact kernel of its ``B``.

    Each block is ``Q diag(0, 0, geomspace(1, floor)) Q*``, with an exact 2-dimensional kernel
    ``Q[:, :2]``.  The coupling follows ``gen_random``'s mode ``seed % 3``, but is cut to the
    blocks' exact ranges ``Q[:, 2:]``, not to the computed eigenvectors above ``1e-8``.  The exact
    kernel of ``B`` is then ``ker A_plus`` in modes 1 and 2, plus ``ker A_minus`` in mode 1.
    """
    rng = np.random.default_rng(seed)
    frames = [random_orthogonal(n, rng) for n in dims]
    blocks = [
        (frame * np.concatenate([np.zeros(kernel_dim), np.geomspace(1.0, floor, n - kernel_dim)]))
        @ frame.T
        for frame, n in zip(frames, dims)
    ]
    coupling = rng.standard_normal(dims)
    coupling *= rng.uniform(0.3, 1.5) / np.linalg.norm(coupling, 2)
    ran_plus, ran_minus = (frame[:, kernel_dim:] for frame in frames)
    mode = seed % 3
    if mode in (1, 2):
        coupling = ran_plus @ (ran_plus.T @ coupling)
    if mode == 1:
        coupling = (coupling @ ran_minus) @ ran_minus.T
    kernels = np.zeros((sum(dims), 2 * kernel_dim))
    kernels[: dims[0], :kernel_dim] = frames[0][:, :kernel_dim]
    kernels[dims[0] :, kernel_dim:] = frames[1][:, :kernel_dim]
    exact = SubspaceBasis(kernels[:, : (0, 2, 1)[mode] * kernel_dim])
    return offdiag_problem(*blocks, coupling), exact


#: The floors below which the formula's dimension breaks on ``graded_problem``.
GRADED_TILT = pytest.mark.xfail(
    strict=True,
    reason="the computed ker A_pm is tilted by about eps ||A_pm|| / f, beyond the kernel "
    "intersection's sine threshold sqrt(32 n eps) (4e-7 at n = 24): the formula gets the "
    "dimension wrong on 5 (f = 1e-10) and 20 (f = 1e-12) of the 30 seeds",
)
GRADED_FLOORS = [
    1e-6, 1e-8, pytest.param(1e-10, marks=GRADED_TILT), pytest.param(1e-12, marks=GRADED_TILT)
]


class TestCheckOffdiagonal:
    def test_swap_is_offdiagonal(self):
        inv = make_involution(np.diag([1.0, -1.0]))
        ok, residual = check_offdiagonal(np.array([[0.0, 1.0], [1.0, 0.0]]), inv)
        assert ok and residual <= 1e-15

    def test_identity_is_not(self):
        inv = make_involution(np.diag([1.0, -1.0]))
        ok, residual = check_offdiagonal(np.eye(2), inv)
        assert not ok
        assert residual == pytest.approx(1.0)

    def test_embedded_coupling_random(self):
        # Oracle: direct block multiplication of the embedded coupling.
        rng = np.random.default_rng(7)
        coupling = rng.standard_normal((6, 4))
        embedded = np.zeros((10, 10))
        embedded[:6, 6:] = coupling
        embedded[6:, :6] = coupling.T
        inv = canonical_involution(6, 4)
        ok, residual = check_offdiagonal(embedded, inv)
        assert ok and residual <= 1e-12
        anti = inv.matrix @ embedded + embedded @ inv.matrix
        assert np.linalg.norm(anti, 2) <= 1e-10 * op_norm(embedded)

    def test_coupling_norm_recomputed(self):
        problem = random_problem(seed=3)
        assert problem.coupling_norm == pytest.approx(
            np.linalg.norm(problem.full_coupling(), 2)
        )


class TestAssembleOffdiag:
    def test_smallest_trivial_instance(self):
        problem = offdiag_problem(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        result = assemble_offdiag(problem)
        np.testing.assert_allclose(result.operator, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(
            result.operator + canonical_involution(1, 1).matrix, np.diag([1.0, -1.0]), atol=1e-15
        )
        assert result.gap_radius == pytest.approx(1.0)

    def test_uncoupled_gives_signed_direct_sum(self):
        # Oracle: diagonal arithmetic, B = A_plus (+) (-A_minus) when T = 0.
        plus = np.diag([0.0, 2.0])
        minus = np.diag([1.0, 3.0])
        problem = offdiag_problem(plus, minus, np.zeros((2, 2)))
        result = assemble_offdiag(problem)
        expected = np.diag([0.0, 2.0, -1.0, -3.0])
        np.testing.assert_allclose(result.operator, expected, atol=1e-13)

    def test_worked_coupled_instance_residuals(self):
        problem = offdiag_problem(
            np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 0.0]])
        )
        result = assemble_offdiag(problem)
        assert result.first_rep_residual <= 1e-10
        assert result.second_rep_residual <= 1e-10

    def test_gap_radius_at_least_one(self):
        # The inverse of the shifted coefficient is a contraction, so the
        # certified radius never drops below 1.
        for seed in range(12):
            problem = random_problem(seed, dims=(3 + seed % 4, 2 + seed % 5))
            result = assemble_offdiag(problem)
            assert result.gap_radius >= 1.0 - 1e-12
            inverse_norm = 1.0 / result.gap_radius
            assert inverse_norm <= 1.0 + 1e-12

    def test_relative_bound_on_probes(self):
        # |v[x]| <= coupling_norm * ||(A+I)^(1/2) x||^2 on a probe grid.
        from formrep import weight_sqrt

        problem = random_problem(seed=9, dims=(5, 4))
        value = form_evaluator(problem)
        weight = problem.full_weight()
        a_root = weight_sqrt(weight)
        j_mat = canonical_involution(problem.dim_plus, problem.dim_minus).matrix
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(problem.dim)
            coupling_part = value(x, x) - np.vdot(a_root @ x, j_mat @ (a_root @ x))
            grown_sq = float(x @ (weight + np.eye(problem.dim)) @ x)
            assert abs(coupling_part) <= problem.coupling_norm * grown_sq * (1 + 1e-10)

    def test_rejects_indefinite_block(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            offdiag_problem(np.diag([-1.0]), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_rejects_bad_coupling_shape(self):
        with pytest.raises(MatrixValidationError):
            offdiag_problem(np.eye(2), np.eye(2), np.zeros((3, 2)))

    def test_rejects_complex_coupling(self):
        coupling = np.array([[0.5, 0.0], [0.0, 0.5j]])
        with pytest.raises(MatrixValidationError, match="^coupling is complex"):
            offdiag_problem(np.eye(2), np.eye(2), coupling)

    def test_rejects_complex_block(self):
        block = np.array([[2.0, 1.0j], [-1.0j, 2.0]])  # Hermitian PSD
        with pytest.raises(MatrixValidationError, match="^minus weight block is complex"):
            offdiag_problem(np.eye(2), block, np.zeros((2, 2)))

    def test_gap_check_at_a_tight_tol_scale(self):
        # The closed-form radius is never below 1; the dense spectrum read 0.999999999999994
        # here, which fails 1 - 1e-10 * 1e-5.
        spec = gen_random("offdiag", (192, 192), 2, kernel_dims=(3, 2))
        spec.tolerances["tol_scale"] = 1e-5
        report = run(spec)
        assert report.representation["gap_radius"] >= 1.0
        assert report.checks["shifted_gap_at_least_one"]


class TestClosedForm:
    @pytest.mark.parametrize("dims, seed", CLOSED_FORM_CASES)
    def test_matches_the_similarity_route(self, dims, seed):
        problem = closed_form_problem(dims, seed)
        result = assemble_offdiag(problem)
        operator = result.operator
        assert np.array_equal(operator, operator.T)
        # Measured ||B - oracle|| / (n eps (1 + ||A||)(1 + ||T||)) on these cases: at most 1.01.
        eps = np.finfo(np.float64).eps
        weight_norm = np.linalg.norm(problem.full_weight(), 2)
        scale = (1 + weight_norm) * (1 + np.linalg.norm(problem.coupling, 2))
        bound = 4 * problem.dim * eps * scale
        assert np.linalg.norm(operator - similarity_route(problem), 2) <= bound

    @pytest.mark.parametrize("dims, seed", CLOSED_FORM_CASES)
    def test_form_matches_the_full_space_maps(self, dims, seed):
        # Oracle: the form from n x n maps of the whole weight, not from its blocks.
        # Measured max |defect| / (n eps (1 + ||A||)(1 + ||T||)) on unit probes: at most 0.03.
        problem = closed_form_problem(dims, seed)
        root = apply_fn(problem.weight, np.sqrt)
        grown = apply_fn(problem.weight, lambda lam: np.sqrt(1.0 + lam))
        signs = canonical_involution(problem.dim_plus, problem.dim_minus).matrix
        xs, ys = np.random.default_rng(5).standard_normal((2, problem.dim, 16))
        xs, ys = xs / np.linalg.norm(xs, axis=0), ys / np.linalg.norm(ys, axis=0)
        expected = np.einsum("ij,ij->j", root @ xs, signs @ (root @ ys))
        expected += np.einsum("ij,ij->j", problem.full_coupling() @ (grown @ xs), grown @ ys)
        eps = np.finfo(np.float64).eps
        weight_norm = np.linalg.norm(problem.full_weight(), 2)
        scale = (1 + weight_norm) * (1 + np.linalg.norm(problem.coupling, 2))
        got = form_evaluator(problem)(xs, ys)
        assert np.max(np.abs(got - expected)) <= 4 * problem.dim * eps * scale

    @pytest.mark.parametrize("dims, seed", CLOSED_FORM_CASES + [((40, 40), "known")])
    def test_gap_radius_matches_the_dense_spectrum(self, dims, seed):
        # Oracle: min |eig| of the dense shifted coefficient [[I, T], [T*, -I]].  The "known"
        # coupling has singular values linspace(1, 0.5), so its radius is (1 + 0.25)^(1/2).
        # Measured |defect| / (n eps) on these cases: at most 0.29.
        if seed == "known":
            coupling = coupling_with_singular_values(np.linspace(1.0, 0.5, dims[0]))
            problem = offdiag_problem(np.eye(dims[0]), np.eye(dims[1]), coupling)
            assert problem.gap_radius == pytest.approx(np.sqrt(1.25), rel=1e-14)
        else:
            problem = closed_form_problem(dims, seed)
        shifted = problem.full_coupling()
        np.fill_diagonal(shifted, np.repeat([1.0, -1.0], dims))
        dense = np.min(np.abs(np.linalg.eigvalsh(shifted)))
        eps = np.finfo(np.float64).eps
        assert abs(problem.gap_radius - dense) <= 2 * problem.dim * eps

    @pytest.mark.parametrize("dims", [(5, 9), (9, 5), (8, 6), (6, 8), (7, 7), (12, 4)])
    def test_coupling_kernels_match_nullspace_oracle(self, dims):
        # Seeds 0..5 run every coupling mode (seed % 3) twice.
        for seed in range(6):
            problem = random_problem(seed, dims=dims, kernel_dims=(2, 1))
            for basis, oracle in coupling_kernel_pairs(problem):
                assert basis.dim == oracle.dim
                assert principal_angle(basis, oracle) <= 1e-12

    @pytest.mark.parametrize("factor, kernel_dim", [(0.5, 1), (2.0, 0)])
    def test_coupling_kernel_threshold(self, factor, kernel_dim):
        # The smallest singular value s has s^2 = factor * kernel_tol(n, s_max^2), s_max = 1.
        n = 40
        values = np.linspace(1.0, 0.5, n)
        values[-1] = np.sqrt(factor * kernel_tol(n, 1.0))
        coupling = coupling_with_singular_values(values)
        problem = offdiag_problem(np.eye(n), np.eye(n), coupling)
        for basis, oracle in coupling_kernel_pairs(problem):
            assert basis.dim == oracle.dim == kernel_dim
            assert principal_angle(basis, oracle) <= 1e-12


class TestDirectCoefficient:
    def test_zero_blocks_leave_pure_coupling(self):
        coupling = np.array([[0.7, -0.2], [0.1, 0.4]])
        problem = offdiag_problem(np.zeros((2, 2)), np.zeros((2, 2)), coupling)
        direct = direct_coefficient(problem)
        expected = np.zeros((4, 4))
        expected[:2, 2:] = coupling
        expected[2:, :2] = coupling.T
        np.testing.assert_allclose(direct, expected, atol=1e-14)

    def test_scalar_blocks(self):
        # Oracle: 1 - 1/2 = 1/2 on the plus side, -1 + 1 = 0 on the minus side.
        problem = offdiag_problem(np.diag([1.0]), np.diag([0.0]), np.zeros((1, 1)))
        direct = direct_coefficient(problem)
        np.testing.assert_allclose(direct, np.diag([0.5, 0.0]), atol=1e-15)

    def test_identity_against_multiplication_oracle(self):
        for seed in (0, 1, 2):
            problem = random_problem(seed, dims=(4, 4))
            direct = direct_coefficient(problem)
            weight = problem.full_weight()
            vals, vecs = np.linalg.eigh(weight)
            grown = (vecs * np.sqrt(1.0 + np.clip(vals, 0.0, None))) @ vecs.T
            rebuilt = grown @ direct @ grown
            operator = assemble_offdiag(problem).operator
            scale = (1.0 + op_norm(weight)) * (1.0 + problem.coupling_norm)
            assert np.linalg.norm(rebuilt - operator, 2) <= 1e-10 * scale

    def test_breached_identity_raises(self):
        # Doubling (A+I)^(1/2) breaks B = (A+I)^(1/2) C (A+I)^(1/2): the defect is
        # 8.7 against a bound of 6.3e-10 on this problem.
        problem = random_problem(1, dims=(6, 5))
        doubled = tuple(2 * root for root in problem.shifted_roots)
        broken = dataclasses.replace(problem, shifted_roots=doubled)
        with pytest.raises(InternalCheckError, match="direct-coefficient identity breached"):
            direct_coefficient(broken)


class TestKernelTheorem:
    def test_uncoupled_kernels_add(self):
        problem = offdiag_problem(np.diag([0.0, 1.0]), np.diag([0.0, 2.0]), np.zeros((2, 2)))
        report = kernel_via_theorem(problem)
        assert report.annihilator_plus.dim == 2  # whole half-space when v = 0
        assert report.annihilator_minus.dim == 2
        assert report.theorem_kernel.dim == 2
        assert report.dims_match
        assert report.principal_angle <= 1e-10
        # kernel is spanned by the first plus and first minus directions
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0
        expected[2, 1] = 1.0
        overlap = np.linalg.svd(expected.T @ report.theorem_kernel.vectors, compute_uv=False)
        np.testing.assert_allclose(overlap, [1.0, 1.0], atol=1e-12)

    def test_coupling_aligned_with_positive_part(self):
        # Coupling acts only on the positive directions; kernels survive.
        problem = offdiag_problem(
            np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), np.array([[0.0, 0.0], [0.0, 1.0]])
        )
        report = kernel_via_theorem(problem)
        assert report.annihilator_plus.dim == 1
        assert report.theorem_kernel.dim == 2
        assert report.dims_match
        assert report.principal_angle <= 1e-10

    def test_coupling_kills_kernel(self):
        # Coupling pairs the zero modes with the other side; kernel empties.
        problem = offdiag_problem(
            np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 0.0]])
        )
        report = kernel_via_theorem(problem)
        assert report.annihilator_plus.dim == 1
        assert report.ker_diag_plus.dim == 1
        assert report.theorem_kernel.dim == 0
        assert report.oracle_kernel.dim == 0
        assert report.dims_match

    def test_random_ensemble_matches_oracle(self):
        for seed in range(25):
            dims = (3 + seed % 5, 3 + (seed * 2) % 5)
            kdims = (seed % 3, (seed + 1) % 3)
            problem = random_problem(seed, dims=dims, kernel_dims=kdims)
            report = kernel_via_theorem(problem)
            oracle = nullspace(assemble_offdiag(problem).operator)
            assert report.theorem_kernel.dim == oracle.dim
            assert report.dims_match
            assert report.principal_angle <= 1e-8

    def test_annihilators_match_the_mapped_block_oracle(self):
        # Oracle: (A_pm + I)^(-1/2) mapped as a full block with apply_fn, then applied.
        for seed in range(6):
            problem = random_problem(seed, dims=(7, 5), kernel_dims=(2, 1))
            report = kernel_via_theorem(problem)
            halves = (
                (problem.weight_plus, problem.adjoint_kernel, report.annihilator_plus),
                (problem.weight_minus, problem.coupling_kernel, report.annihilator_minus),
            )
            for block, kernel, annihilator in halves:
                inv_root = apply_fn(block, lambda lam: 1.0 / np.sqrt(1.0 + lam))
                mapped = orthonormal_columns(inv_root @ kernel.vectors)
                assert annihilator.dim == mapped.dim
                assert principal_angle(annihilator, mapped) <= 1e-12

    def test_theorem_dimension_identity(self):
        problem = random_problem(seed=31, dims=(5, 5), kernel_dims=(2, 1))
        report = kernel_via_theorem(problem)
        from formrep import subspace_intersection

        meet_plus = subspace_intersection(report.ker_diag_plus, report.annihilator_plus)
        meet_minus = subspace_intersection(report.ker_diag_minus, report.annihilator_minus)
        assert report.theorem_kernel.dim == meet_plus.dim + meet_minus.dim

    @pytest.mark.parametrize("half", ["plus", "minus"])
    def test_wrong_annihilator_breaches_the_pairing(self, half, monkeypatch):
        # The first two coordinate vectors of one half stand in for its annihilator; the check
        # settles the bound by the Frobenius norm and reports the 2-norm of T* G_plus U (plus)
        # or T G_minus U (minus).
        problem = random_problem(0, dims=(6, 5))
        grown, pairing = {
            "plus": (problem.shifted_roots[0], problem.coupling.T),
            "minus": (problem.shifted_roots[1], problem.coupling),
        }[half]
        wrong = SubspaceBasis(np.eye(grown.shape[0])[:, :2])
        annihilator = offdiag._annihilator

        def swapped(block, kernel):
            return wrong if block.n == wrong.ambient_dim else annihilator(block, kernel)

        monkeypatch.setattr(offdiag, "_annihilator", swapped)
        defect = np.linalg.norm(pairing @ grown @ wrong.vectors, 2)
        with pytest.raises(InternalCheckError, match=f"{half} annihilator fails") as info:
            kernel_via_theorem(problem)
        assert f": {defect:.3e} > " in str(info.value)

    def test_graded_spectrum_oracle_dimension(self):
        # The nullspace of B finds the exact dimension at every floor, where the formula does not.
        for floor in (1e-6, 1e-8, 1e-10, 1e-12):
            for seed in range(30):
                problem, exact = graded_problem(floor, seed)
                assert kernel_via_theorem(problem).oracle_kernel.dim == exact.dim

    @pytest.mark.parametrize("floor", GRADED_FLOORS)
    def test_graded_spectrum_theorem_kernel(self, floor):
        # Davis-Kahan scale s = eps max(||B|| / gap_B, ||A_pm|| / f), gap_B the smallest nonzero
        # |eig| of B and ||A_pm|| = 1.  The worst angle to the exact kernel measured 0.27 s at
        # f = 1e-6 (0.20 s with the projector-sum intersection).
        eps = np.finfo(np.float64).eps
        wrong, worst = [], 0.0
        for seed in range(30):
            problem, exact = graded_problem(floor, seed)
            kernel = kernel_via_theorem(problem).theorem_kernel
            if kernel.dim != exact.dim:
                wrong.append(seed)
                continue
            magnitudes = np.sort(np.abs(assemble_offdiag(problem).decomposition.eigenvalues))
            scale = eps * max(magnitudes[-1] / magnitudes[exact.dim], 1.0 / floor)
            worst = max(worst, principal_angle(kernel, exact) / scale)
        assert wrong == []
        assert worst <= 1.0
