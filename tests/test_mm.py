"""Majorize-minimize curvatures, surrogate, inner solvers, and outer loop."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    curvature_optimal_numeric,
    fft_instance,
    finite_diff_grad,
    majorizer_value,
    minimize_quad_plus_huber_by_operator,
    psi_ddot,
    psi_dot,
)
from poisson_pr.admm import run_admm, update_x
from poisson_pr.init_eval import initialize
from poisson_pr.mm import (
    CurvatureKind,
    build_majorizer,
    curvature_improved,
    curvature_max,
    minimize_quad_plus_huber,
    mm_update_unregularized,
    run_mm,
)
from poisson_pr.numerics import DegenerateIterateError, cg_solve, lbfgs_minimize, real_dot
from poisson_pr.objectives import DiffOp, HuberTV, PoissonObjective
from poisson_pr.operators import (
    DIRECT_MAX_COLS,
    DenseModel,
    FieldTag,
    MaskedDftModel,
    NormalOp,
    SignalVector,
    calibrate_scale,
    make_masks,
    quad_form,
    random_gaussian_model,
    realify,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks


def poisson_instance(n=8, m=48, seed=0, mean=0.25, background=0.1):
    model = random_gaussian_model(m, n, seed=seed, background=background)
    rng = np.random.default_rng(seed + 50)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    calibrate_scale(model, x, mean)
    meas = simulate_poisson(model, x, seed + 60)
    return model, x, PoissonObjective(model, meas.y)


class TestCurvatureMax:
    def test_direct_value(self):
        assert curvature_max(np.array([6.0]), np.array([2.0]))[0] == pytest.approx(2.75)

    def test_zero_counts(self):
        assert curvature_max(np.array([0.0]), np.array([1.0]))[0] == 2.0

    def test_zero_background_rejected(self):
        with pytest.raises(ValueError):
            curvature_max(np.array([1.0]), np.array([0.0]))


class TestCurvatureImproved:
    def test_value_at_zero(self):
        assert curvature_improved(0.0, 5.0, 1.0) == 2.0

    def test_equals_max_at_sqrt_3b(self):
        y, b = 6.0, 2.0
        s = np.sqrt(3.0 * b)
        assert curvature_improved(s, y, b) == pytest.approx(
            2.0 + y / (4.0 * b), abs=1e-12)

    def test_matches_closed_form(self):
        c1 = curvature_improved(10.0, 6.0, 2.0)
        c2 = psi_ddot((2.0 + np.sqrt(2.0**2 + 2.0 * 10.0**2)) / 10.0, 6.0, 2.0)
        assert 2.0 < c1 <= 2.75
        assert c1 == pytest.approx(c2, abs=1e-12)

    @given(
        st.one_of(st.floats(-10, 10), st.just(0.0), st.floats(1e-300, 1e300),
                  st.floats(-1e300, -1e-300)),
        st.floats(0, 20), st.floats(0.05, 5),
    )
    @example(1e-300, 20.0, 0.05)
    @example(1e75, 20.0, 0.05)
    @example(-1e300, 20.0, 5.0)
    @settings(max_examples=200, deadline=None)
    def test_ordering_between_two_and_max(self, s, y, b):
        c = curvature_improved(s, y, b)
        assert np.isfinite(c)
        assert 2.0 - 1e-12 <= c <= 2.0 + y / (4.0 * b) + 1e-12

    def test_continuous_at_zero(self):
        vals = [curvature_improved(s, 3.0, 0.5) for s in (1e-8, 1e-6, 1e-4)]
        assert np.allclose(vals, 2.0, atol=1e-6)

    def test_zero_background_rejected(self):
        with pytest.raises(ValueError):
            curvature_improved(1.0, 1.0, 0.0)


class TestCurvatureOptimal:
    def test_zero_counts_gives_two(self):
        assert curvature_optimal_numeric(3.0, 0.0, 1.0) == 2.0

    def test_never_exceeds_improved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.uniform(-10, 10)
            y = rng.uniform(0.1, 20)
            b = rng.uniform(0.05, 5)
            assert curvature_optimal_numeric(s, y, b) <= \
                curvature_improved(s, y, b) + 1e-6

    def test_grid_refinement_stable(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            s = rng.uniform(-5, 5)
            y = rng.uniform(0.1, 10)
            b = rng.uniform(0.1, 2)
            c1 = curvature_optimal_numeric(s, y, b, grid_points=4001)
            c2 = curvature_optimal_numeric(s, y, b, grid_points=8001)
            assert abs(c1 - c2) < 1e-4


class TestMajorizer:
    def test_anchor_value(self):
        model, x, obj = poisson_instance(seed=1)
        ctx = build_majorizer(obj, x)
        assert majorizer_value(ctx, x) == pytest.approx(obj.cost(x), rel=1e-12)

    def test_domination_random_points(self):
        model, x, obj = poisson_instance(seed=2)
        rng = np.random.default_rng(3)
        for kind in (CurvatureKind.MAX, CurvatureKind.IMPROVED):
            ctx = build_majorizer(obj, x, kind)
            for _ in range(20):
                z = x + 0.5 * (rng.standard_normal(len(x))
                               + 1j * rng.standard_normal(len(x)))
                assert majorizer_value(ctx, z) >= obj.cost(z) - 1e-9

    def test_tangent_gradient(self):
        # the surrogate's gradient at the anchor equals the cost gradient
        model, x, obj = poisson_instance(n=4, m=16, seed=4)
        obj.field = FieldTag.REAL
        xr = np.abs(x).astype(complex)
        ctx = build_majorizer(obj, xr)
        fd = finite_diff_grad(lambda z: majorizer_value(ctx, z.astype(complex)),
                              xr.real)
        g = obj.gradient(xr)
        assert np.allclose(g.real, fd, atol=1e-5)

    def test_positive_weights(self):
        model, x, obj = poisson_instance(seed=5)
        for kind in CurvatureKind:
            ctx = build_majorizer(obj, x, kind)
            assert np.all(ctx.w > 0)


N_CG = DIRECT_MAX_COLS + 8  # unknowns above the direct-solve limit
# the three solves of quad_form: scalar weight with the diagonal
# of A'A, a weight vector at N <= DIRECT_MAX_COLS (densified), and above it
KERNEL_CASES = {
    "diagonal": (MaskedDftModel(make_masks(3, 10, seed=1)), 2.0),
    "direct": (random_gaussian_model(60, 12, seed=2),
               np.random.default_rng(3).uniform(0.5, 2.0, 60)),
    "iterative": (random_gaussian_model(4 * N_CG, N_CG, seed=4),
                  np.random.default_rng(5).uniform(0.5, 2.0, 4 * N_CG)),
}


def densified_normal(model, w, field):
    a = model.densify()
    h = a.conj().T @ (np.reshape(w, (-1, 1)) * a)
    return h.real if field.is_real else h


class TestNormalEquationKernels:
    @pytest.mark.parametrize("path", KERNEL_CASES)
    @pytest.mark.parametrize("field", [FieldTag.COMPLEX, FieldTag.REAL])
    def test_solve_normal_matches_dense_solve(self, path, field):
        model, w = KERNEL_CASES[path]
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal(model.cols) + 1j * rng.standard_normal(model.cols)
        if field.is_real:
            rhs = rhs.real.astype(complex)
        out = quad_form(model, w, field).solve(rhs, 500, 1e-13)
        h = densified_normal(model, w, field)
        expected = np.linalg.solve(h, rhs.real if field.is_real else rhs)
        assert np.linalg.norm(out - expected) < 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("field", [FieldTag.COMPLEX, FieldTag.REAL])
    def test_rank_deficient_direct_solve_raises(self, field):
        # the first column is the only nonzero one: A'A = diag(3, 0), whose
        # zero eigenvalue comes out exactly
        model = DenseModel(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        w = np.array([1.0, 2.0, 0.5])
        assert np.linalg.eigvalsh(densified_normal(model, w, field))[0] == 0.0
        rhs = np.ones(2, dtype=complex)
        for weights in (w, 1.0, np.zeros(3)):
            with pytest.raises(DegenerateIterateError):
                quad_form(model, weights, field).solve(rhs, 30, 1e-9)

    def test_masked_direct_solve_matches_its_diagonal(self):
        model = MaskedDftModel(make_masks(3, DIRECT_MAX_COLS, seed=6), scale=0.8)
        rhs = np.random.default_rng(7).standard_normal(model.cols).astype(complex)
        fast = quad_form(model, 2.0, FieldTag.COMPLEX).solve(rhs, 30, 1e-9)
        # hide the diagonal: the scalar weight then takes the direct path
        model.normal_diag = lambda: None
        direct = quad_form(model, 2.0, FieldTag.COMPLEX).solve(rhs, 30, 1e-9)
        assert np.linalg.norm(direct - fast) <= 1e-10 * np.linalg.norm(fast)


class TestMmUpdateUnregularized:
    def test_diagonal_system(self):
        # A = I: componentwise x - psi_dot(x)/W
        m = DenseModel(np.eye(3), background=1.0)
        y = np.array([2.0, 0.0, 5.0])
        obj = PoissonObjective(m, y)
        x = np.array([0.5, -1.0, 2.0], dtype=complex)
        ctx = build_majorizer(obj, x, CurvatureKind.MAX)
        out = mm_update_unregularized(ctx)
        w = curvature_max(y, np.ones(3))
        expected = x - psi_dot(x, y, np.ones(3)) / w
        assert np.allclose(out, expected, atol=1e-12)

    def test_direct_vs_cg(self):
        model, x, obj = poisson_instance(n=16, m=96, seed=6)
        ctx = build_majorizer(obj, x)
        direct = mm_update_unregularized(ctx)
        cg = ctx.x_k - cg_solve(NormalOp(model, ctx.w, ctx.field), ctx.grad, iters=30)
        assert np.linalg.norm(direct - cg) < 1e-8

    def test_clamp_keeps_the_majorizer_below_the_cost(self):
        # a nonnegative instance on which clamping the unconstrained minimizer
        # raised q (and, from iteration 19, the cost) above f(x_k)
        sig = blocks(16, seed=0)
        model = random_gaussian_model(256, 16, seed=4, background=0.1)
        calibrate_scale(model, sig.values, 0.25)
        obj = PoissonObjective(model, simulate_poisson(model, sig.values, 1004).y,
                               field=sig.field)
        z = initialize(model, obj.y, field=sig.field, iters=100, seed=4).values
        clamped = 0
        for _ in range(50):
            ctx = build_majorizer(obj, z)
            z_new = mm_update_unregularized(ctx)
            clamped += np.any(z_new.real == 0.0)
            assert np.min(z_new.real) >= 0.0
            f_k = obj.cost(z)
            assert majorizer_value(ctx, z_new) <= f_k + 1e-12 * abs(f_k)
            assert obj.cost(z_new) <= f_k + 1e-12 * abs(f_k)
            z = z_new
        assert clamped

    def test_descent(self):
        model, x, obj = poisson_instance(seed=7)
        x0 = initialize(model, obj.y, seed=1)
        z = x0.values
        for _ in range(5):
            ctx = build_majorizer(obj, z)
            z_new = mm_update_unregularized(ctx)
            assert obj.cost(z_new) <= obj.cost(z) + 1e-10 * abs(obj.cost(z))
            z = z_new

    @pytest.mark.parametrize("kind", ["masked", "canonical"])
    @pytest.mark.parametrize("field", list(FieldTag))
    def test_truncated_cg_step_lowers_the_majorizer_on_the_dft_models(self, kind, field):
        # CG stops at STEP_TOL there; from 0 each CG iterate lowers q(.; x_k)
        obj, x0 = fft_instance(kind, field)
        z = x0.values
        for _ in range(20):
            ctx = build_majorizer(obj, z)
            z_new = mm_update_unregularized(ctx)
            f_k = obj.cost(z)
            assert majorizer_value(ctx, z_new) <= f_k + 1e-12 * abs(f_k)
            z = z_new

    @pytest.mark.parametrize("kind", ["masked", "canonical"])
    @pytest.mark.parametrize("field", list(FieldTag))
    def test_truncated_cg_run_never_rises_on_the_dft_models(self, kind, field):
        obj, x0 = fft_instance(kind, field)
        state = run_mm(obj, x0, 60)
        assert state.status == "ok" and len(state.trace) == 60
        costs = np.concatenate([[obj.cost(x0.values)], state.costs()])
        assert np.all(np.diff(costs) <= 1e-8 * np.abs(costs[:-1]))


class TestMmUpdateHuber:
    def test_beta_zero_reduces_to_quadratic_solve(self):
        model, x, obj = poisson_instance(n=6, m=36, seed=10)
        ctx = build_majorizer(obj, x)
        reg = HuberTV(0.0, 0.1, DiffOp(6))
        out = minimize_quad_plus_huber(ctx.quad_op, ctx.grad, ctx.x_k, reg, ctx.field)
        exact = mm_update_unregularized(ctx)
        assert np.linalg.norm(out - exact) < 1e-6

    def test_matches_gradient_descent_oracle(self):
        model, x, obj = poisson_instance(n=8, m=40, seed=11)
        ctx = build_majorizer(obj, x)
        reg = HuberTV(1.5, 0.2, DiffOp(8))
        out = minimize_quad_plus_huber(ctx.quad_op, ctx.grad, ctx.x_k, reg, ctx.field)

        def total(z):
            return majorizer_value(ctx, z) + reg.beta * reg.value(z)

        def fg(z):
            g = ctx.grad + ctx.quad_op @ (z - ctx.x_k) + reg.gradient(z)
            return total(z), g

        # independent oracle: quasi-Newton run on the same inner objective,
        # to a gradient norm of 1e-12 or 2,000 steps
        for z, _ in islice(lbfgs_minimize(fg, ctx.x_k.copy()), 2000):
            if np.linalg.norm(fg(z)[1]) <= 1e-12:
                break
        assert total(out) <= total(z) + 1e-9
        assert np.linalg.norm(out - z) < 1e-4

    def test_outer_descent_with_huber(self):
        model, x, obj = poisson_instance(seed=12)
        reg = HuberTV(2.0, 0.1, DiffOp(8))
        x0 = initialize(model, obj.y, seed=3)
        state = run_mm(obj, x0, 15, reg=reg)

        def total(z):
            return obj.cost(z) + reg.beta * reg.value(z)

        costs = np.concatenate([[total(x0.values)], state.costs()])
        assert np.all(np.diff(costs) <= 1e-9 * np.maximum(np.abs(costs[:-1]), 1.0))


def field_instance(field, n, seed):
    """(objective, start) of a dense Poisson instance whose signal lives in
    `field`: a nonnegative `blocks` phantom or a random complex vector."""
    model = random_gaussian_model(6 * n, n, seed=seed, background=0.1)
    if field is FieldTag.COMPLEX:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        x = blocks(n, seed=seed).values
    calibrate_scale(model, x, 0.25)
    y = simulate_poisson(model, x, seed + 1).y
    x0 = initialize(model, y, field=field, iters=50, seed=seed)
    return PoissonObjective(model, y, field=field), x0.values


def operator_oracle(model, w, field):
    return lambda z: realify(model.adjoint(w * model.apply_linear(z)), field)


# the nonnegative orthant at N <= DIRECT_MAX_COLS has an exact solve of its own
INNER_CASES = [(FieldTag.REAL_NONNEGATIVE, DIRECT_MAX_COLS + 8),
               (FieldTag.COMPLEX, 16), (FieldTag.COMPLEX, DIRECT_MAX_COLS + 8)]


class TestInnerSolverMatchesOperatorOracle:
    """The Gram-based, field-typed nonlinear CG against the operator-based one
    it replaced, on the Gram (N = 16) and the NormalOp (N > DIRECT_MAX_COLS)
    paths."""

    @pytest.mark.parametrize("field, n", INNER_CASES)
    def test_mm_weighted_form(self, field, n):
        obj, x0 = field_instance(field, n, seed=21)
        reg = HuberTV(2.0, 0.1, DiffOp(n))
        ctx = build_majorizer(obj, x0)
        op = operator_oracle(obj.model, ctx.w, field)
        expected = minimize_quad_plus_huber_by_operator(
            op, op(ctx.x_k) - ctx.grad, ctx.x_k, reg, field, 50, 1e-9)
        out = minimize_quad_plus_huber(ctx.quad_op, ctx.grad, ctx.x_k, reg, field)
        assert out.dtype == complex
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("field, n", INNER_CASES)
    def test_admm_rho_scaled_form(self, field, n):
        obj, x0 = field_instance(field, n, seed=22)
        model, reg, rho = obj.model, HuberTV(2.0, 0.1, DiffOp(n)), 3.0
        v, eta = admm_split(obj, x0)
        rhs = realify(model.adjoint(v + eta), field)
        expected = minimize_quad_plus_huber_by_operator(
            operator_oracle(model, rho, field), rho * rhs, x0, reg, field, 50, 1e-9)
        out = update_x(model, model.apply(x0), v, eta, field, x0, reg=reg, rho=rho)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)


def admm_split(obj, x0):
    """(v, eta) near A x0, the split variable and dual of an ADMM x-update."""
    rng = np.random.default_rng(23)
    m = obj.model.rows
    v = obj.forward(x0) + 0.1 * rng.standard_normal(m)
    eta = 0.05 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return v, eta


def nonnegative_huber_subproblem(op, lin, reg):
    """(value, KKT residual) functions of F(x) = 1/2 x'Qx - lin'x + beta R(x)
    over x >= 0, Q given by the operator oracle `op`; the residual
    ||min(x, grad F(x))|| is 0 exactly at the minimizer."""
    def value(x):
        return 0.5 * real_dot(x, op(x)) - real_dot(lin, x) + reg.beta * reg.value(x)

    def kkt(x):
        g = (op(x) - lin + reg.gradient(x)).real
        return np.linalg.norm(np.minimum(x.real, g))

    return value, kkt


class TestDenseNonnegativeInnerSolve:
    """At N <= DIRECT_MAX_COLS on the nonnegative orthant, MM's step and
    ADMM's x-update reach the subproblem's KKT point, at a value no higher
    than the operator-based nonlinear CG's."""

    def test_mm_weighted_form(self):
        field, n = FieldTag.REAL_NONNEGATIVE, 16
        obj, x0 = field_instance(field, n, seed=21)
        reg = HuberTV(2.0, 0.1, DiffOp(n))
        ctx = build_majorizer(obj, x0)
        op = operator_oracle(obj.model, ctx.w, field)
        lin = op(ctx.x_k) - ctx.grad
        oracle = minimize_quad_plus_huber_by_operator(
            op, lin, ctx.x_k, reg, field, 50, 1e-9)
        out = minimize_quad_plus_huber(ctx.quad_op, ctx.grad, ctx.x_k, reg, field)
        value, kkt = nonnegative_huber_subproblem(op, lin, reg)
        assert out.dtype == complex
        assert np.all(out.imag == 0) and np.all(out.real >= 0)
        assert kkt(out) <= 1e-10 * np.linalg.norm(lin)
        assert value(out) <= value(oracle)

    def test_admm_rho_scaled_form(self):
        field, n = FieldTag.REAL_NONNEGATIVE, 16
        obj, x0 = field_instance(field, n, seed=22)
        model, reg, rho = obj.model, HuberTV(2.0, 0.1, DiffOp(n)), 3.0
        v, eta = admm_split(obj, x0)
        op = operator_oracle(model, rho, field)
        lin = rho * realify(model.adjoint(v + eta), field)
        oracle = minimize_quad_plus_huber_by_operator(op, lin, x0, reg, field, 50, 1e-8)
        out = update_x(model, model.apply(x0), v, eta, field, x0, reg=reg, rho=rho)
        value, kkt = nonnegative_huber_subproblem(op, lin, reg)
        assert np.all(out.imag == 0) and np.all(out.real >= 0)
        assert kkt(out) <= 1e-10 * np.linalg.norm(lin)
        assert value(out) <= value(oracle)


class TestRunMm:
    def test_zero_iterations(self):
        model, x, obj = poisson_instance(seed=13)
        x0 = SignalVector(np.ones(model.cols, dtype=complex))
        state = run_mm(obj, x0, 0)
        assert state.trace == []
        assert np.array_equal(state.x, x0.values)

    @pytest.mark.parametrize("kind", list(CurvatureKind))
    def test_zero_background_ends_terminated(self, kind):
        # no quadratic majorizer exists at a positive count with b = 0: the
        # run ends in a status, as every degenerate input does
        model, x, obj = poisson_instance(n=8, m=64, seed=16, background=0.0)
        assert np.any(obj.y > 0)
        x0 = initialize(model, obj.y, seed=6)
        state = run_mm(obj, x0, 10, curvature=kind)
        assert state.status == "terminated: no quadratic majorizer exists with zero background"
        assert state.trace == []
        assert np.array_equal(state.x, x0.values)

    @pytest.mark.parametrize("kind", list(CurvatureKind))
    def test_zero_background_on_zero_counts_only(self, kind):
        # psi is exactly quadratic on a zero count, so its curvature is 2
        # whatever the background there
        model, x, obj = poisson_instance(n=8, m=64, seed=17)
        model.background = np.where(obj.y > 0, 0.1, 0.0)
        obj = PoissonObjective(model, obj.y)
        x0 = initialize(model, obj.y, seed=7)
        state = run_mm(obj, x0, 20, curvature=kind)
        assert state.status == "ok" and len(state.trace) == 20
        costs = np.concatenate([[obj.cost(x0.values)], state.costs()])
        assert np.all(np.diff(costs) <= 1e-10 * np.abs(costs[:-1]))

    def test_monotone_both_curvatures(self):
        model, x, obj = poisson_instance(n=12, m=72, seed=14)
        x0 = initialize(model, obj.y, seed=4)
        for kind in (CurvatureKind.MAX, CurvatureKind.IMPROVED):
            state = run_mm(obj, x0, 30, curvature=kind)
            costs = np.concatenate([[obj.cost(x0.values)], state.costs()])
            assert np.all(np.diff(costs) <= 1e-10 * np.abs(costs[:-1]))

    def test_improved_at_least_as_fast_per_iteration(self):
        model, x, obj = poisson_instance(n=12, m=96, seed=15)
        x0 = initialize(model, obj.y, seed=5)
        imp = run_mm(obj, x0, 30, curvature=CurvatureKind.IMPROVED)
        mx = run_mm(obj, x0, 30, curvature=CurvatureKind.MAX)
        assert np.all(imp.costs() <= mx.costs() + 1e-9 * np.abs(mx.costs()))

    def test_huber_monotone_where_the_clamped_inner_solver_rose(self):
        # a 256 x 32 race-small instance (benchmark seed 0, pass 10) on which
        # the clamped nonlinear CG let both curvatures' costs rise by up to
        # 1e-6 relative per iteration from iteration 19
        signal = blocks(32, seed=0)
        model = random_gaussian_model(256, 32, seed=3587916967, background=0.1)
        calibrate_scale(model, signal.values, 0.25)
        y = simulate_poisson(model, signal.values, 3525212137).y
        x0 = initialize(model, y, field=signal.field, iters=300, seed=1687281699)
        obj = PoissonObjective(model, y, field=signal.field)
        reg = HuberTV(2.0, 0.1, DiffOp(32))
        c0 = obj.cost(x0.values) + reg.beta * reg.value(x0.values)
        for kind in (CurvatureKind.MAX, CurvatureKind.IMPROVED):
            state = run_mm(obj, x0, 100, curvature=kind, reg=reg)
            assert state.status == "ok"
            costs = np.concatenate([[c0], state.costs()])
            assert np.all(np.diff(costs) <= 1e-12 * np.abs(costs[:-1]))

    def test_huber_with_duplicate_columns_ends_in_a_defined_status(self):
        # A'WA is singular: with beta > 0 the Huber term makes the inner
        # problem strictly convex and MM stays monotone; at beta = 0 the
        # dense inner solve ends the run as degenerate, not in a traceback
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
        a[:, 5] = a[:, 2]
        model = DenseModel(a / np.sqrt(2.0), background=0.1)
        signal = blocks(8, seed=0)
        calibrate_scale(model, signal.values, 0.25)
        obj = PoissonObjective(model, simulate_poisson(model, signal.values, 3).y,
                               field=signal.field)
        x0 = SignalVector(np.ones(8), signal.field)
        for kind in (CurvatureKind.MAX, CurvatureKind.IMPROVED):
            reg = HuberTV(2.0, 0.1, DiffOp(8))
            state = run_mm(obj, x0, 30, curvature=kind, reg=reg)
            assert state.status == "ok"
            costs = np.concatenate([[obj.cost(x0.values) + reg.beta * reg.value(x0.values)],
                                    state.costs()])
            assert np.all(np.diff(costs) <= 1e-12 * np.abs(costs[:-1]))
            state = run_mm(obj, x0, 30, curvature=kind, reg=HuberTV(0.0, 0.1, DiffOp(8)))
            assert state.status.startswith("terminated")

    @pytest.mark.parametrize("field", [FieldTag.REAL_NONNEGATIVE, FieldTag.COMPLEX])
    def test_duplicate_columns_end_unregularized_runs_in_a_defined_status(self, field):
        # A'WA and A'A are singular: the dense solve's rank check ends MM and
        # ADMM as degenerate, not in a traceback
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
        a[:, 5] = a[:, 2]
        model = DenseModel(a / np.sqrt(2.0), background=0.1)
        signal = blocks(8, seed=0)
        calibrate_scale(model, signal.values, 0.25)
        obj = PoissonObjective(model, simulate_poisson(model, signal.values, 3).y,
                               field=field)
        x0 = SignalVector(np.ones(8), field)
        for state in (run_mm(obj, x0, 10), run_admm(obj, x0, 10)):
            assert state.status.startswith("terminated: ")
            assert "singular" in state.status

    @pytest.mark.parametrize("field", list(FieldTag))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_huge_counts_end_in_a_defined_status(self, seed, field):
        # y = 1e300 overflows the improved curvature, so A'WA is not finite;
        # its eigendecomposition raised a bare LinAlgError in 8 of these 9
        model = random_gaussian_model(64, 8, seed=seed, background=0.1)
        calibrate_scale(model, blocks(8).values, 0.25)
        obj = PoissonObjective(model, np.full(64, 1e300), field=field)
        with np.errstate(all="ignore"):
            state = run_mm(obj, SignalVector(np.full(8, 1e-3), field), 5)
        assert state.status == "ok" or state.status.startswith("terminated: ")

    def test_cg_path_above_direct_limit(self):
        model, x, obj = poisson_instance(n=N_CG, m=8 * N_CG, seed=16)
        x0 = initialize(model, obj.y, seed=6)
        state = run_mm(obj, x0, 3)
        assert state.status == "ok"
        assert len(state.trace) == 3
