"""Cost functions, their derivatives, Fisher marginals, and the Huber-TV
regularizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_diff_grad
from poisson_pr.numerics import real_dot
from poisson_pr.objectives import (
    DiffOp,
    GaussianObjective,
    HuberTV,
    PoissonObjective,
    RegularizedObjective,
    fisher_marginal_gaussian,
    fisher_marginal_poisson,
    huber,
    huber_weight,
    psi,
    psi_ddot,
    psi_dot,
)
from poisson_pr.operators import DenseModel, FieldTag, random_gaussian_model


class TestPsi:
    def test_quadratic_case(self):
        assert psi(1.0, 0.0, 1.0) == pytest.approx(2.0)

    def test_zero_log_zero(self):
        assert psi(0.0, 0.0, 0.0) == 0.0

    def test_direct_value(self):
        assert psi(2.0, 6.0, 2.0) == pytest.approx(6.0 - 6.0 * np.log(6.0))

    def test_zero_rate_positive_count_rejected(self):
        with pytest.raises(ValueError):
            psi(0.0, 1.0, 0.0)


class TestPsiDot:
    def test_stationary_at_matched_rate(self):
        # |v|^2 + b = y -> derivative 0
        assert psi_dot(1.0, 2.0, 1.0) == 0.0

    def test_pure_quadratic(self):
        assert psi_dot(1.0, 0.0, 0.7) == pytest.approx(2.0)

    def test_complex_value(self):
        assert psi_dot(1.0j, 4.0, 1.0) == pytest.approx(-2.0j)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            psi_dot(0.0, 0.0, 0.0)


class TestPsiDdot:
    def test_two_at_matched_magnitude(self):
        # |v|^2 = b -> numerator vanishes
        assert psi_ddot(np.sqrt(2.0), 5.0, 2.0) == pytest.approx(2.0)

    def test_max_at_sqrt_3b(self):
        y, b = 7.0, 0.3
        v = np.sqrt(3.0 * b)
        assert psi_ddot(v, y, b) == pytest.approx(2.0 + y / (4.0 * b), abs=1e-12)

    def test_direct_value(self):
        assert psi_ddot(1.0, 6.0, 2.0) == pytest.approx(2.0 / 3.0)

    @given(
        st.floats(-10, 10), st.floats(0, 20), st.floats(0.05, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_above_by_max_curvature(self, v, y, b):
        # the one-sided bound that makes the quadratic majorizer valid: the
        # curvature expression (before the sign factor) never exceeds the max
        val = psi_ddot(abs(v), y, b)
        assert val <= 2.0 + y / (4.0 * b) + 1e-12

    def test_value_at_zero(self):
        # the magnitude at v = 0 is |2 - 2y/b|, which can exceed the upper
        # curvature bound; only the one-sided bound holds in general
        assert psi_ddot(0.0, 3.0, 1.0) == pytest.approx(-4.0)


class TestFisherMarginals:
    def test_poisson_values(self):
        assert fisher_marginal_poisson(0.0, 1.0) == 0.0
        assert fisher_marginal_poisson(1.0, 0.0) == pytest.approx(4.0)
        assert fisher_marginal_poisson(1.0, 1.0) == pytest.approx(2.0)

    def test_gaussian_values(self):
        assert fisher_marginal_gaussian(0.0, 1.0) == 0.0
        assert fisher_marginal_gaussian(1.0, 0.0) == pytest.approx(16.0)
        assert fisher_marginal_gaussian(1.0, 1.0) == pytest.approx(32.0)


class TestCost:
    def test_gaussian_zero_at_background(self):
        m = DenseModel(np.eye(3), background=0.5)
        obj = GaussianObjective(m, np.full(3, 0.5))
        assert obj.cost(np.zeros(3)) == 0.0

    def test_poisson_scalar_value(self):
        m = DenseModel(np.eye(1), background=1.0)
        obj = PoissonObjective(m, np.array([2.0]))
        assert obj.cost(np.array([1.0])) == pytest.approx(2.0 - 2.0 * np.log(2.0))

    def test_ray_scan_minimum_at_truth(self):
        # noiseless means as data: the truth minimizes cost along a ray
        m = random_gaussian_model(40, 4, seed=0, background=0.1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        obj = PoissonObjective(m, m.intensities(x))
        ts = np.linspace(0.0, 2.0, 101)
        costs = [obj.cost(t * x) for t in ts]
        assert np.argmin(costs) == 50  # t = 1

    def test_measurement_length_validated(self):
        m = DenseModel(np.eye(3))
        with pytest.raises(ValueError):
            PoissonObjective(m, np.zeros(2))


class TestGradient:
    def test_poisson_zero_at_stationary(self):
        m = DenseModel(np.eye(4), background=1.0)
        obj = PoissonObjective(m, np.ones(4))
        assert np.allclose(obj.gradient(np.zeros(4)), 0.0)

    def test_gaussian_real_field_finite_difference(self):
        m = random_gaussian_model(11, 5, seed=2, background=0.1)
        rng = np.random.default_rng(3)
        y = rng.poisson(1.0, 11).astype(float)
        obj = GaussianObjective(m, y, field=FieldTag.REAL)
        x = rng.standard_normal(5).astype(complex)
        g = obj.gradient(x)
        fd = finite_diff_grad(lambda z: obj.cost(z), x.real)
        rel = np.linalg.norm(g.real - fd) / max(np.linalg.norm(fd), 1.0)
        assert rel < 1e-5

    def test_complex_directional_derivative(self):
        m = random_gaussian_model(12, 4, seed=4, background=0.2)
        rng = np.random.default_rng(5)
        y = rng.poisson(0.5, 12).astype(float)
        obj = PoissonObjective(m, y)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = obj.gradient(x)
        for _ in range(3):
            d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            eps = 1e-6
            dd = (obj.cost(x + eps * d) - obj.cost(x - eps * d)) / (2 * eps)
            assert real_dot(g, d) == pytest.approx(dd, rel=1e-4, abs=1e-8)


class TestHuber:
    def test_zero(self):
        assert huber(0.0, 1.0) == 0.0
        assert huber_weight(0.0, 1.0) == 1.0

    def test_branch_boundary_continuity(self):
        alpha = 0.7
        below = huber(alpha - 1e-10, alpha)
        above = huber(alpha + 1e-10, alpha)
        assert abs(below - alpha**2 / 2) < 1e-9
        assert abs(above - alpha**2 / 2) < 1e-9

    def test_direct_values(self):
        assert huber(2.0, 1.0) == pytest.approx(1.5)
        assert huber_weight(2.0, 1.0) * 2.0 == pytest.approx(1.0)
        assert huber_weight(2.0, 1.0) == pytest.approx(0.5)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            huber(1.0, 0.0)

    def test_derivative_continuity_at_knee(self):
        alpha = 1.3
        lo = huber_weight(alpha - 1e-10, alpha) * (alpha - 1e-10)
        hi = huber_weight(alpha + 1e-10, alpha) * (alpha + 1e-10)
        assert abs(lo - hi) < 1e-9

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_convexity_second_differences(self, t, dt):
        alpha = 0.5
        h = 1e-3 * (1.0 + abs(dt))
        second = huber(t + h, alpha) - 2 * huber(t, alpha) + huber(t - h, alpha)
        assert second >= -1e-9

    def test_complex_modulus(self):
        z = 3.0 * np.exp(1j * 1.1)
        assert huber(z, 1.0) == pytest.approx(huber(3.0, 1.0))
        assert abs(huber_weight(z, 1.0) * z) == pytest.approx(1.0)


class TestDiffOp:
    def test_constant_annihilated_1d(self):
        op = DiffOp(5)
        assert np.all(op.apply(np.full(5, 3.0)) == 0.0)

    def test_constant_annihilated_2d(self):
        op = DiffOp(12, dims=(3, 4))
        assert np.all(op.apply(np.full(12, 2.0)) == 0.0)
        assert op.k == 3 * 3 + 2 * 4

    def test_adjoint_consistency(self):
        for op in (DiffOp(6), DiffOp(12, dims=(3, 4))):
            rng = np.random.default_rng(1)
            x = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
            z = rng.standard_normal(op.k) + 1j * rng.standard_normal(op.k)
            lhs = np.vdot(z, op.apply(x))
            rhs = np.vdot(op.adjoint(z), x)
            assert abs(lhs - rhs) < 1e-12

    def test_densify_matches_apply(self):
        op = DiffOp(6, dims=(2, 3))
        t = op.densify()
        rng = np.random.default_rng(2)
        x = rng.standard_normal(6)
        assert np.allclose(t @ x, op.apply(x), atol=1e-14)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            DiffOp(5, dims=(2, 3))


class TestRegularizer:
    def test_constant_signal_zero(self):
        reg = HuberTV(32.0, 0.1, DiffOp(8))
        x = np.full(8, 1.5, dtype=complex)
        assert reg.value(x) == 0.0
        assert np.all(reg.gradient(x) == 0.0)

    def test_quadratic_branch_value(self):
        # signal (0, 1) with large alpha: single difference 1, h = 1/2
        reg = HuberTV(1.0, 10.0, DiffOp(2))
        assert reg.value(np.array([0.0, 1.0], dtype=complex)) == pytest.approx(0.5)

    def test_gradient_finite_difference(self):
        reg = HuberTV(2.5, 0.3, DiffOp(6))
        rng = np.random.default_rng(4)
        x = rng.standard_normal(6)
        g = reg.gradient(x.astype(complex))
        fd = finite_diff_grad(lambda z: reg.beta * reg.value(z), x)
        assert np.allclose(g.real, fd, atol=1e-6)

    def test_hessian_matrix_is_the_gradients_jacobian(self):
        # off the knee, the gradient beta T'(D Tx) is piecewise linear in x
        rng = np.random.default_rng(5)
        for op in (DiffOp(6), DiffOp(12, dims=(3, 4))):
            reg = HuberTV(2.5, 0.3, op)
            x = 0.4 * rng.standard_normal(op.n)
            tx = np.abs(op.apply(x))
            assert np.min(np.abs(tx - reg.alpha)) > 1e-3
            assert np.any(tx < reg.alpha) and np.any(tx > reg.alpha)
            eye = 1e-6 * np.eye(op.n)
            fd = np.stack([(reg.gradient(x + e) - reg.gradient(x - e)).real / 2e-6
                           for e in eye], axis=1)
            assert np.allclose(reg.hessian_matrix(reg.weights(x)), fd, atol=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HuberTV(-1.0, 0.1, DiffOp(4))
        with pytest.raises(ValueError):
            HuberTV(1.0, 0.0, DiffOp(4))

    def test_regularized_objective_gradient_fd(self):
        m = random_gaussian_model(10, 4, seed=6, background=0.2)
        rng = np.random.default_rng(7)
        y = rng.poisson(0.5, 10).astype(float)
        obj = PoissonObjective(m, y, field=FieldTag.REAL)
        reg = HuberTV(3.0, 0.2, DiffOp(4))
        full = RegularizedObjective(obj, reg)
        x = rng.standard_normal(4).astype(complex)
        g = full.gradient(x)
        fd = finite_diff_grad(lambda z: full.cost(z), x.real)
        rel = np.linalg.norm(g.real - fd) / max(np.linalg.norm(fd), 1.0)
        assert rel < 1e-5


class TestFisherMonteCarlo:
    def test_score_second_moment_matches_fisher(self):
        # E|psi_dot(v; y, b)|^2 under y ~ Poisson(|v|^2+b) equals the marginal
        # Fisher information 4|v|^2/(|v|^2+b)
        rng = np.random.default_rng(8)
        v, b = 0.8, 0.3
        rate = v * v + b
        n = 200_000
        y = rng.poisson(rate, n)
        score2 = np.abs(2.0 * v * (1.0 - y / rate)) ** 2
        se = np.std(score2) / np.sqrt(n)
        expected = fisher_marginal_poisson(v, b)
        assert abs(np.mean(score2) - expected) < 4.0 * se
