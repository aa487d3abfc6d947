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
from poisson_pr.operators import (
    DenseModel,
    FieldTag,
    MaskedDftModel,
    SignalVector,
    calibrate_scale,
    make_masks,
    random_gaussian_model,
    realify,
)
from poisson_pr.wf import run_wf


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


def split_instance(field, counts="low", zero_background=False, seed=0):
    """(objective, x) of a dense 96 x 8 Poisson instance at a low mean count
    ("low"), all-zero counts ("zero") or no zero counts ("positive"); with
    `zero_background`, b = 0 on the zero-count rows and 0.1 on the others."""
    rng = np.random.default_rng(seed)
    m, n = 96, 8
    a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    x = rng.standard_normal(n) + (0.0 if field.is_real else 1j * rng.standard_normal(n))
    if field is FieldTag.REAL_NONNEGATIVE:
        x = np.abs(x)
    model = DenseModel(a, background=0.1)
    calibrate_scale(model, x, 0.25)
    y = {"low": lambda: rng.poisson(model.intensities(x)).astype(float),
         "zero": lambda: np.zeros(m),
         "positive": lambda: 1.0 + rng.poisson(1.0, m).astype(float)}[counts]()
    if zero_background:
        model.background = np.where(y > 0, 0.1, 0.0)
    x0 = x + 0.3 * (rng.standard_normal(n) + (0.0 if field.is_real else 1j * rng.standard_normal(n)))
    if field is FieldTag.REAL_NONNEGATIVE:
        x0 = np.abs(x0)
    return PoissonObjective(model, y, field=field), np.asarray(x0, dtype=complex)


def full_cost_and_gradient(obj, x, keep=None):
    """sum psi(Ax) and A' psi_dot(Ax) (rows outside `keep` dropped),
    field-projected, from the full products."""
    ax = obj.model.apply(x)
    mg = psi_dot(ax, obj.y, obj.b)
    if keep is not None:
        mg = np.where(keep, mg, 0.0)
    return float(np.sum(psi(ax, obj.y, obj.b))), realify(obj.model.adjoint(mg), obj.field)


def relative(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


FIELDS = [FieldTag.COMPLEX, FieldTag.REAL, FieldTag.REAL_NONNEGATIVE]


class TestDenseSplit:
    """On a dense model the Poisson cost and gradient come from A'A and the
    positive-count rows A_P; they match the full sums within 1e-12."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("counts", ["low", "zero", "positive"])
    def test_matches_the_full_products(self, field, counts):
        obj, x = split_instance(field, counts)
        assert obj.split() is not None
        if counts == "low":
            assert 0 < obj.positive.size < obj.y.size
        cost, grad = full_cost_and_gradient(obj, x)
        assert abs(obj.cost(x) - cost) <= 1e-12 * abs(cost)
        g = obj.gradient(x)
        assert g.dtype == complex
        assert relative(g, grad) <= 1e-12
        if field.is_real:
            assert np.all(g.imag == 0)

    @pytest.mark.parametrize("field", FIELDS)
    def test_all_zero_counts_give_the_quadratic_gradient(self, field):
        obj, x = split_instance(field, "zero")
        assert obj.positive.size == 0
        a = obj.model.densify()
        gram = a.conj().T @ a
        assert relative(obj.gradient(x), realify(2.0 * gram @ x, field)) <= 1e-12
        quad = np.vdot(x, gram @ x).real + np.sum(obj.b)
        assert abs(obj.cost(x) - quad) <= 1e-12 * quad

    @pytest.mark.parametrize("field", FIELDS)
    def test_zero_background_on_the_zero_counts(self, field):
        obj, x = split_instance(field, zero_background=True)
        assert np.any(obj.b == 0) and np.all(obj.b[obj.positive] > 0)
        cost, grad = full_cost_and_gradient(obj, x)
        assert abs(obj.cost(x) - cost) <= 1e-12 * abs(cost)
        assert relative(obj.gradient(x), grad) <= 1e-12

    def test_zero_rate_on_a_zero_count_has_the_gradient_2s(self):
        # a zero row of A at b = 0 with y = 0: psi = |s|^2 there, and the
        # full product's psi_dot would be undefined at rate 0
        obj, x = split_instance(FieldTag.COMPLEX, zero_background=True)
        a = np.array(obj.model.entries)
        row = np.flatnonzero(obj.y == 0)[0]
        a[row] = 0.0
        model = DenseModel(a, background=obj.b, scale=obj.model.scale)
        cut = PoissonObjective(model, obj.y, field=obj.field)
        with pytest.raises(ValueError):
            psi_dot(model.apply(x), obj.y, obj.b)
        keep = np.arange(obj.y.size) != row
        rest = PoissonObjective(DenseModel(a[keep], background=obj.b[keep],
                                           scale=model.scale), obj.y[keep])
        assert abs(cut.cost(x) - rest.cost(x)) <= 1e-12 * abs(rest.cost(x))
        assert relative(cut.gradient(x), rest.gradient(x)) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_truncation_mask_drops_rows(self, field):
        obj, x = split_instance(field)
        rng = np.random.default_rng(3)
        keep = rng.random(obj.y.size) < 0.7
        # dropped rows with and without a count
        assert np.any(~keep & (obj.y > 0)) and np.any(~keep & (obj.y == 0))
        _, grad = full_cost_and_gradient(obj, x, keep)
        assert relative(obj.gradient(x, keep), grad) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_all_kept_mask_is_bit_identical(self, field):
        obj, x = split_instance(field)
        g = obj.gradient(x)
        kept = obj.gradient(x, np.ones(obj.y.size, dtype=bool))
        assert kept.tobytes() == g.tobytes()

    def test_cost_is_a_function_of_x_alone_after_wf_moved_the_memo(self):
        # on the complex field WF remembers each iterate's A x as
        # A x_k - mu A grad; the cost reads A_P x from its own memo
        obj, x = split_instance(FieldTag.COMPLEX)
        state = run_wf(obj, SignalVector(x), 15)
        assert state.status == "ok" and len(state.trace) == 15
        # the kept A x is the moved one, which differs from apply's in its
        # last bits
        assert not np.array_equal(obj.forward(state.x), obj.model.apply(state.x))
        fresh = PoissonObjective(obj.model, obj.y, obj.field)
        assert obj.cost(state.x) == fresh.cost(state.x)
        assert state.trace[-1].cost == fresh.cost(state.x)
        assert obj.gradient(state.x).tobytes() == fresh.gradient(state.x).tobytes()

    def test_shared_across_objectives_and_rebuilt_after_a_scale_change(self):
        obj, x = split_instance(FieldTag.REAL)
        other = PoissonObjective(obj.model, obj.y.copy(), field=FieldTag.COMPLEX)
        assert other.split()[0] is obj.split()[0]  # one A_P per (model, P)
        before = obj.cost(x)
        obj.model.scale *= 2.0
        fresh = PoissonObjective(obj.model, obj.y, obj.field)
        assert obj.cost(x) == fresh.cost(x) != before
        cost, grad = full_cost_and_gradient(obj, x)
        assert abs(obj.cost(x) - cost) <= 1e-12 * abs(cost)
        assert relative(obj.gradient(x), grad) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("counts", ["low", "zero", "positive"])
    def test_zero_count_gram_matches_the_zero_count_rows(self, field, counts):
        # complex on every field: ADMM's dual residual is the norm of a
        # complex N-vector
        obj, _ = split_instance(field, counts)
        a_p, g_z = obj.zero_count_split()
        assert a_p is obj.split()[0]
        a = obj.model.densify()[obj.y == 0]
        expected = a.conj().T @ a
        assert g_z.dtype == complex and g_z.shape == expected.shape
        scale = np.linalg.norm(obj.model.densify()) ** 2
        assert np.linalg.norm(g_z - expected) <= 1e-14 * scale

    def test_full_products_elsewhere(self):
        dft = MaskedDftModel(make_masks(3, 8, seed=1), background=0.1)
        assert PoissonObjective(dft, np.zeros(dft.rows)).split() is None
        assert PoissonObjective(dft, np.zeros(dft.rows)).zero_count_split() is None
        dense = random_gaussian_model(16, 4, seed=1, background=0.1)
        assert GaussianObjective(dense, np.zeros(16)).split() is None
        assert GaussianObjective(dense, np.zeros(16)).zero_count_split() is None


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
