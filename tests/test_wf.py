"""Wirtinger-flow loop and its step-size engines."""

import numpy as np
import pytest

from poisson_pr import wf
from poisson_pr.init_eval import initialize, nrmse, psnr
from poisson_pr.objectives import (
    DiffOp,
    GaussianObjective,
    HuberTV,
    PoissonObjective,
)
from poisson_pr.operators import (
    CanonicalDftModel,
    DenseModel,
    FieldTag,
    SignalVector,
    calibrate_scale,
    random_gaussian_model,
    simulate_poisson,
)
from poisson_pr.phantoms import disk, random_complex
from poisson_pr.wf import (
    SUFFICIENT_DECREASE,
    DegenerateIterateError,
    StepKind,
    StepRule,
    TruncationRule,
    gaussian_line_coeffs,
    run_wf,
    step_backtracking,
    step_exact_gaussian,
    step_fisher,
    truncation_mask,
)


def small_poisson_instance(n=4, m=16, seed=0, background=0.1):
    model = random_gaussian_model(m, n, seed=seed, background=background)
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    calibrate_scale(model, x, 0.25)
    meas = simulate_poisson(model, x, seed + 200)
    return model, x, PoissonObjective(model, meas.y)


class TestStepFisher:
    def test_identity_scalar(self):
        # A = I (1x1), x = 1, b = 1: Fisher marginal is 4/(1+1) = 2, mu = 1/2
        m = DenseModel(np.eye(1), background=1.0)
        obj = PoissonObjective(m, np.array([3.0]))
        mu, _ = step_fisher(obj, np.array([1.0 + 0j]), np.array([1.0 + 0j]))
        assert mu == pytest.approx(0.5)

    def test_invariant_to_gradient_scale(self):
        m = DenseModel(np.eye(3), background=0.5)
        obj = PoissonObjective(m, np.array([1.0, 0.0, 2.0]))
        x = np.array([0.4, -0.2, 1.1], dtype=complex)
        g = np.array([0.3, 0.7, -0.1], dtype=complex)
        assert step_fisher(obj, x, 5.0 * g)[0] == pytest.approx(
            step_fisher(obj, x, g)[0], rel=1e-14)

    def test_zero_gradient_error(self):
        m = DenseModel(np.eye(2), background=1.0)
        obj = PoissonObjective(m, np.ones(2))
        with pytest.raises(DegenerateIterateError):
            step_fisher(obj, np.ones(2, dtype=complex), np.zeros(2, dtype=complex))

    def test_degenerate_curvature_error(self):
        # x = 0 with zero background contribution: all |(Ax)_i| = 0
        m = DenseModel(np.eye(2), background=1.0)
        obj = PoissonObjective(m, np.zeros(2))
        with pytest.raises(DegenerateIterateError):
            step_fisher(obj, np.zeros(2, dtype=complex), np.ones(2, dtype=complex))

    def test_matches_densified_fisher_matrix(self):
        model, x, obj = small_poisson_instance(n=6, m=24, seed=1)
        g = obj.gradient(x)
        mu, d = step_fisher(obj, x, g)
        assert np.array_equal(d, model.apply_linear(g))  # the A grad it formed
        a = model.densify()
        d1 = obj.fisher_diag(model.apply(x))
        fim = a.conj().T @ (d1[:, None] * a)
        denom = float(np.real(np.vdot(g, fim @ g)))
        expected = float(np.sum(np.abs(g) ** 2)) / denom
        assert mu == pytest.approx(expected, rel=1e-10)


class TestStepFisherReg:
    def test_beta_zero_reduces_to_unregularized(self):
        model, x, obj = small_poisson_instance(n=5, m=20, seed=2)
        reg = HuberTV(0.0, 0.1, DiffOp(5))
        g = obj.gradient(x)
        assert step_fisher(obj, x, g, reg, reg.weights(x))[0] == pytest.approx(
            step_fisher(obj, x, g)[0], rel=1e-15)

    def test_denominator_matches_densified_operator(self):
        model, x, obj = small_poisson_instance(n=5, m=20, seed=3)
        reg = HuberTV(4.0, 0.2, DiffOp(5))
        g = obj.gradient(x) + reg.gradient(x)
        mu, _ = step_fisher(obj, x, g, reg, reg.weights(x))
        a = model.densify()
        t = reg.diff_op.densify()
        d1 = obj.fisher_diag(model.apply(x))
        d2 = reg.weights(x)
        h = a.conj().T @ (d1[:, None] * a) + reg.beta * t.T @ (d2[:, None] * t)
        denom = float(np.real(np.vdot(g, h @ g)))
        expected = float(np.sum(np.abs(g) ** 2)) / denom
        assert mu == pytest.approx(expected, rel=1e-10)


class TestStepBacktracking:
    def test_hand_traced_quadratic(self):
        # f(x) = x^2 at x = 1, grad = 2: mu = 1 rejected, mu = 0.5 accepted
        cost = lambda z: float(np.sum(np.abs(z) ** 2))
        mu, ok = step_backtracking(cost, np.array([1.0 + 0j]), np.array([2.0 + 0j]))
        assert ok
        assert mu == pytest.approx(0.5)

    def test_zero_gradient_error(self):
        with pytest.raises(DegenerateIterateError):
            step_backtracking(lambda z: 0.0, np.ones(2, dtype=complex),
                              np.zeros(2, dtype=complex))

    def test_accepted_step_satisfies_armijo(self):
        model, x, obj = small_poisson_instance(n=4, m=16, seed=4)
        g = obj.gradient(x)
        mu, ok = step_backtracking(obj.cost, x, g)
        assert ok
        gnorm2 = float(np.real(np.vdot(g, g)))
        assert obj.cost(x - mu * g) <= obj.cost(x) \
            - SUFFICIENT_DECREASE * mu * gnorm2 + 1e-12


class TestStepExactGaussian:
    def test_1d_quartic_lands_at_global_minimum(self):
        # g(x) = (1 - x^2)^2 from x = 2: exact line step reaches |x| = 1
        m = DenseModel(np.eye(1))
        obj = GaussianObjective(m, np.array([1.0]))
        x = np.array([2.0 + 0j])
        g = obj.gradient(x)
        mu, _ = step_exact_gaussian(obj, x, g)
        x_new = x - mu * g
        assert abs(abs(x_new[0]) - 1.0) < 1e-9
        assert obj.cost(x_new) < 1e-15

    def test_beats_dense_grid(self):
        model = random_gaussian_model(16, 4, seed=5, background=0.1)
        rng = np.random.default_rng(6)
        y = rng.poisson(0.5, 16).astype(float)
        obj = GaussianObjective(model, y)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = obj.gradient(x)
        mu, _ = step_exact_gaussian(obj, x, g)
        (a0, a1, a2, a3, a4), _ = gaussian_line_coeffs(obj, x, g)
        line = lambda t: ((a4 * t + a3) * t + a2) * t * t + a1 * t + a0
        grid = np.linspace(0.0, max(2 * mu, 1.0), 10_000)
        assert line(mu) <= min(line(t) for t in grid) + 1e-9

    def test_global_minimum_is_the_smaller_local_minimum(self):
        # g(x) = (1 - x1^2)^2 + (1 - x2^2)^2 from x = (3, 2.5): along the
        # gradient the line has local minima at mu = 0.0240 and 0.0406, and
        # the first is lower; only the smallest critical point finds it
        obj = GaussianObjective(DenseModel(np.eye(2)), np.array([1.0, 1.0]))
        x = np.array([3.0, 2.5], dtype=complex)
        g = obj.gradient(x)
        (a0, a1, a2, a3, a4), _ = gaussian_line_coeffs(obj, x, g)
        crit = np.sort(np.roots([4 * a4, 3 * a3, 2 * a2, a1]).real)
        line = lambda t: ((a4 * t + a3) * t + a2) * t * t + a1 * t + a0
        assert 0 < crit[0] < crit[2] and line(crit[0]) < line(crit[2])
        assert step_exact_gaussian(obj, x, g)[0] == pytest.approx(crit[0], rel=1e-9)

    def test_line_coeffs_match_cost(self):
        model, x, _ = small_poisson_instance(n=3, m=12, seed=7)
        rng = np.random.default_rng(8)
        y = rng.poisson(0.5, 12).astype(float)
        obj = GaussianObjective(model, y)
        g = obj.gradient(x)
        (a0, a1, a2, a3, a4), w = gaussian_line_coeffs(obj, x, g)
        assert np.array_equal(w, model.apply_linear(g))
        assert np.array_equal(step_exact_gaussian(obj, x, g)[1], w)
        for t in (0.0, 0.013, 0.2):
            poly = ((a4 * t + a3) * t + a2) * t * t + a1 * t + a0
            assert poly == pytest.approx(obj.cost(x - t * g), rel=1e-10)

    def test_zero_gradient_error(self):
        m = DenseModel(np.eye(1))
        obj = GaussianObjective(m, np.array([1.0]))
        with pytest.raises(DegenerateIterateError):
            step_exact_gaussian(obj, np.ones(1, dtype=complex),
                                np.zeros(1, dtype=complex))


class TestTruncation:
    def test_large_threshold_keeps_all(self):
        model, x, obj = small_poisson_instance(seed=9)
        mask = truncation_mask(obj, x, a_h=1e12)
        assert np.all(mask)

    def test_zero_threshold_keeps_only_exact_fits(self):
        m = DenseModel(np.eye(2))
        obj = PoissonObjective(m, np.array([1.0, 5.0]))
        x = np.array([1.0 + 0j, 1.0 + 0j])  # |Ax|^2 = (1, 1): first fits exactly
        mask = truncation_mask(obj, x, a_h=0.0)
        assert mask.tolist() == [True, False]

    def test_mask_unchanged_when_x_y_and_b_are_rescaled(self):
        # |y - b - |Ax|^2| and mean(resid) |Ax| / ||Ax|| both scale by 4 when
        # x -> 2x, y -> 4y and b -> 4b, exactly in floating point
        model, x, obj = small_poisson_instance(n=32, m=256, seed=12)
        x = x + 0.3 * np.random.default_rng(13).standard_normal(32)
        mask = truncation_mask(obj, x, a_h=30.0)
        assert 0 < np.sum(mask) < mask.size
        big = DenseModel(model.entries, background=4.0 * model.background,
                         scale=model.scale)
        big_mask = truncation_mask(PoissonObjective(big, 4.0 * obj.y), 2.0 * x, a_h=30.0)
        assert np.array_equal(big_mask, mask)

    def test_near_truth_keeps_most_rows_at_low_counts(self):
        # mean count 0.25: the level must not shrink with the model's scale
        model, x, obj = small_poisson_instance(n=32, m=256, seed=12)
        x = x + 0.3 * np.random.default_rng(13).standard_normal(32)
        mask = truncation_mask(obj, x, a_h=10.0)
        assert np.sum(mask) >= 0.9 * mask.size

    def test_zero_iterate_rejected(self):
        model, _, obj = small_poisson_instance(seed=10)
        with pytest.raises(ValueError):
            truncation_mask(obj, np.zeros(model.cols, dtype=complex), 10.0)

    def test_all_kept_matches_untruncated_run(self):
        model, x, obj = small_poisson_instance(n=6, m=30, seed=11)
        x0 = initialize(model, obj.y, seed=1)
        plain = run_wf(obj, x0, 20)
        kept = run_wf(obj, x0, 20, trunc=TruncationRule(a_h=1e12))
        assert np.array_equal(plain.x, kept.x)
        assert np.array_equal(plain.costs(), kept.costs())


class TestRunWf:
    def test_zero_iterations(self):
        model, x, obj = small_poisson_instance(seed=12)
        x0 = SignalVector(np.ones(model.cols, dtype=complex))
        state = run_wf(obj, x0, 0)
        assert state.trace == []
        assert np.array_equal(state.x, x0.values)

    def test_backtracking_monotone(self):
        model, x, obj = small_poisson_instance(n=8, m=48, seed=13)
        x0 = initialize(model, obj.y, seed=2)
        state = run_wf(obj, x0, 50, rule=StepRule(kind=StepKind.BACKTRACKING))
        costs = np.concatenate([[obj.cost(x0.values)], state.costs()])
        assert np.all(np.diff(costs) <= 1e-10 * np.maximum(np.abs(costs[:-1]), 1.0))

    def test_fisher_mostly_monotone_noiseless(self):
        model = random_gaussian_model(128, 16, seed=14, background=0.1)
        rng = np.random.default_rng(15)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        calibrate_scale(model, x, 0.25)
        obj = PoissonObjective(model, model.intensities(x))
        x0 = initialize(model, obj.y, seed=3)
        state = run_wf(obj, x0, 200)
        costs = np.concatenate([[obj.cost(x0.values)], state.costs()])
        increases = np.sum(np.diff(costs) > 1e-10 * np.abs(costs[:-1]))
        assert increases <= 0.05 * (len(costs) - 1)

    def test_exact_gaussian_never_increases(self):
        model = random_gaussian_model(32, 4, seed=16, background=0.1)
        rng = np.random.default_rng(17)
        y = rng.poisson(0.3, 32).astype(float)
        obj = GaussianObjective(model, y)
        x0 = initialize(model, y, seed=4)
        state = run_wf(obj, x0, 50,
                       rule=StepRule(kind=StepKind.EXACT_GAUSSIAN))
        costs = np.concatenate([[obj.cost(x0.values)], state.costs()])
        assert np.all(np.diff(costs) <= 1e-9 * np.maximum(np.abs(costs[:-1]), 1.0))

    def test_exact_gaussian_requires_gaussian_cost(self):
        model, x, obj = small_poisson_instance(seed=18)
        x0 = SignalVector(np.ones(model.cols, dtype=complex))
        with pytest.raises(TypeError):
            run_wf(obj, x0, 1, rule=StepRule(kind=StepKind.EXACT_GAUSSIAN))

    def test_degenerate_start_sets_status(self):
        # stationary start: gradient 0 -> run terminates with partial trace
        m = DenseModel(np.eye(2), background=1.0)
        obj = PoissonObjective(m, np.ones(2))
        x0 = SignalVector(np.zeros(2, dtype=complex))
        state = run_wf(obj, x0, 5)
        assert state.status.startswith("terminated")
        assert state.trace == []

    def test_nonnegative_field_clamped(self):
        model = random_gaussian_model(64, 8, seed=19, background=0.1)
        x = np.abs(np.random.default_rng(20).standard_normal(8))
        calibrate_scale(model, x, 0.25)
        meas = simulate_poisson(model, x, 21)
        obj = PoissonObjective(model, meas.y, field=FieldTag.REAL_NONNEGATIVE)
        x0 = initialize(model, meas.y, field=FieldTag.REAL_NONNEGATIVE, seed=5)
        state = run_wf(obj, x0, 30, x_true=x)
        assert np.min(state.x.real) >= 0.0
        assert np.max(np.abs(state.x.imag)) == 0.0

    def test_trace_metrics_present(self):
        model, x, obj = small_poisson_instance(seed=22)
        x0 = initialize(model, obj.y, seed=6)
        state = run_wf(obj, x0, 5, x_true=x)
        assert len(state.trace) == 5
        ks = [r.k for r in state.trace]
        assert ks == [1, 2, 3, 4, 5]
        times = [r.time_s for r in state.trace]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
        assert all(np.isfinite(r.nrmse) for r in state.trace)

    def test_trace_metrics_are_those_of_each_iterate(self, monkeypatch):
        # one phase correction and one error norm per row, which agree with
        # nrmse and psnr of the iterate to rounding
        model, x, obj = small_poisson_instance(seed=22)
        x0 = initialize(model, obj.y, seed=6)
        iterates = []
        project = wf.project_field
        monkeypatch.setattr(wf, "project_field",
                            lambda z, field: iterates.append(project(z, field)) or iterates[-1])
        state = run_wf(obj, x0, 8, x_true=x)
        assert len(state.trace) == len(iterates) == 8
        for row, xk in zip(state.trace, iterates):
            assert abs(row.nrmse - nrmse(xk, x)) <= 1e-14 * nrmse(xk, x)
            assert abs(row.psnr - psnr(xk, x)) <= 1e-14 * abs(psnr(xk, x))
        assert all(np.isnan([r.nrmse for r in run_wf(obj, x0, 2).trace]))

    def test_huber_fisher_forms_tx_twice_per_iterate(self, monkeypatch):
        # per iterate, T x for the cost and for the gradient, whose Huber
        # weights the Fisher step reuses, and T grad for the step's
        # curvature; one more T x for the start's cost
        model, x, obj = small_poisson_instance(n=6, m=36, seed=23)
        reg = HuberTV(2.0, 0.1, DiffOp(6))
        x0 = initialize(model, obj.y, seed=7)
        calls = []
        apply = DiffOp.apply
        monkeypatch.setattr(DiffOp, "apply", lambda op, z: calls.append(1) or apply(op, z))
        state = run_wf(obj, x0, 10, reg=reg)
        assert state.status == "ok" and len(state.trace) == 10
        assert len(calls) == 3 * 10 + 1


class TestForwardAlongTheStep:
    """On an unclamped step, WF remembers A x_{k+1} = A x_k - mu A grad in
    place of an `apply`; the rounding that accumulates stays far below the
    cost's own."""

    @staticmethod
    def dense_instance():
        model = random_gaussian_model(96, 12, seed=24, background=0.1)
        sig = random_complex(12, seed=25)
        return model, sig.values

    @staticmethod
    def canonical_instance():
        # the reference offset makes apply's A x differ from apply_linear's
        sig = disk(6, 6)
        model = CanonicalDftModel((6, 6), disk(6, 4).values.real.reshape(6, 4),
                                  background=0.1)
        rng = np.random.default_rng(26)
        return model, sig.values * np.exp(1j * rng.uniform(0, 2 * np.pi, 36))

    @pytest.mark.parametrize("build", ["dense_instance", "canonical_instance"])
    def test_remembered_products_match_apply(self, build, monkeypatch):
        model, x = getattr(self, build)()
        calibrate_scale(model, x, 0.25)
        y = simulate_poisson(model, x, 27).y
        obj = PoissonObjective(model, y)
        x0 = initialize(model, y, iters=50, seed=8)
        remembered = []
        remember = obj.remember

        def recorded(z, az):
            remembered.append((np.array(z), az))
            return remember(z, az)
        monkeypatch.setattr(obj, "remember", recorded)
        state = run_wf(obj, x0, 300)
        assert state.status == "ok" and len(state.trace) == 300
        # the start's product from apply, then one remembered per iterate
        assert len(remembered) == 301
        worst = max(np.linalg.norm(az - model.apply(z)) / np.linalg.norm(model.apply(z))
                    for z, az in remembered)
        assert worst <= 1e-12
        fresh = PoissonObjective(model, y).cost(state.x)
        assert state.trace[-1].cost == pytest.approx(fresh, rel=1e-12, abs=0)
