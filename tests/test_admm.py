"""ADMM split-variable updates and outer loop."""

import numpy as np
import pytest
from oracles import admm_full_rows

from poisson_pr import admm, operators
from poisson_pr.admm import (
    MagnitudeCubic,
    run_admm,
    update_dual,
    update_v,
    update_v_magnitude_bpos,
    update_x,
)
from poisson_pr.init_eval import initialize, nrmse
from poisson_pr.numerics import cubic_largest_root
from poisson_pr.objectives import DiffOp, HuberTV, PoissonObjective
from poisson_pr.operators import (
    DIRECT_MAX_COLS,
    CanonicalDftModel,
    DenseModel,
    FieldTag,
    MaskedDftModel,
    SignalVector,
    calibrate_scale,
    make_masks,
    random_gaussian_model,
    realify,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks, disk, random_complex


def _lagrangian(m, y, b, rho, t):
    rate = m * m + b
    return rate - y * np.log(rate) + 0.5 * rho * (m - t) ** 2


class TestPhaseUpdate:
    # v = m sign(A x - eta), m the magnitude at t = |A x - eta|
    def test_real_positive(self):
        ax, eta, y, b, rho = np.array([3.0 + 0j]), np.array([1.0 + 0j]), 1.0, 0.5, 2.0
        v = update_v(ax, eta, y, np.array([b]), rho)
        assert v[0] == update_v_magnitude_bpos(2.0, y, b, rho)
        assert v[0].imag == 0.0

    def test_general_phase(self):
        z = 2.0 * np.exp(1j * 0.9)
        v = update_v(np.array([z]), np.array([0.0j]), np.array([3.0]), np.zeros(1), 2.0)
        m = update_v_magnitude_bpos(2.0, 3.0, 0.0, 2.0)
        assert v[0] / m == pytest.approx(np.exp(1j * 0.9), abs=1e-14)

    def test_zero_maps_to_one(self):
        # sign(0) := 1: v = m, real and positive
        for b in (0.0, 0.5):
            v = update_v(np.array([0.0j]), np.array([0.0j]), np.array([2.0]),
                         np.array([b]), 4.0)
            m = update_v_magnitude_bpos(0.0, 2.0, b, 4.0)
            assert m > 0 and v[0] == m + 0.0j


class TestMagnitudeB0:
    # at b = 0 the cubic is m times the quadratic (2+rho) m^2 - rho t m - 2y
    def test_hand_value_and_stationarity(self):
        m = update_v_magnitude_bpos(0.0, 2.0, 0.0, 2.0)
        assert m == pytest.approx(1.0)
        # stationarity of |v|^2 - y log|v|^2 + (rho/2)(|v|-t)^2
        resid = 2 * m - 2 * 2.0 / m + 2.0 * (m - 0.0)
        assert abs(resid) < 1e-10

    def test_zero_counts(self):
        assert update_v_magnitude_bpos(3.0, 0.0, 0.0, 2.0) == pytest.approx(
            2.0 * 3.0 / (2.0 + 2.0))

    def test_quadratic_residual_random(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 5, 1000)
        y = rng.uniform(0, 10, 1000)
        rho = 3.0
        m = update_v_magnitude_bpos(t, y, np.zeros_like(t), rho)
        assert np.all(m >= 0)
        # defining quadratic (in m): (2+rho) m^2 - rho t m - 2y = 0
        resid = (2 + rho) * m * m - rho * t * m - 2 * y
        assert np.max(np.abs(resid)) < 1e-9


class TestMagnitudeBpos:
    def test_zero_counts_convex_case(self):
        # y = 0: Lagrangian is convex in m; unique positive root
        t, b, rho = 2.0, 0.5, 3.0
        m = update_v_magnitude_bpos(t, 0.0, b, rho)
        grid = np.linspace(1e-6, 10.0, 100_000)
        lag = _lagrangian(grid, 0.0, b, rho, t)
        assert abs(m - grid[np.argmin(lag)]) < 1e-3

    def test_hand_instance(self):
        # rho=2, b=1, y=1, t=1: root of 4m^3 - 2m^2 + 2m - 2
        m = update_v_magnitude_bpos(1.0, 1.0, 1.0, 2.0)
        assert 0.7 < m < 0.75
        resid = 4 * m**3 - 2 * m**2 + 2 * m - 2
        assert abs(resid) < 1e-9
        grid = np.linspace(1e-6, 5.0, 100_000)
        lag = _lagrangian(grid, 1.0, 1.0, 2.0, 1.0)
        assert abs(m - grid[np.argmin(lag)]) < 1e-3

    def test_cubic_residual_random(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 10, 2000)
        y = rng.uniform(0, 20, 2000)
        b = rng.uniform(0.05, 5, 2000)
        rho = 4.0
        m = update_v_magnitude_bpos(t, y, b, rho)
        resid = ((2 + rho) * m**3 - rho * t * m**2
                 + (2 * b - 2 * y + rho * b) * m - rho * b * t)
        assert np.max(np.abs(resid) / (2 + rho)) < 1e-9
        assert np.all(m > 0)

    def test_selection_minimizes_lagrangian(self):
        # whenever multiple nonnegative roots exist, the chosen one attains
        # the smallest Lagrangian value among them; the candidates come from
        # np.roots, independently of the root kernel. For t > 0 exactly one
        # root is positive, so every tenth row has t = 0, where m = 0 is a
        # root too.
        rng = np.random.default_rng(2)
        t = rng.uniform(0, 10, 5000)
        y = rng.uniform(0, 20, 5000)
        b = rng.uniform(0.05, 5, 5000)
        t[::10] = 0.0
        rho = 1.5
        m = update_v_magnitude_bpos(t, y, b, rho)
        choices = 0
        for i in range(len(t)):
            roots = np.roots([2 + rho, -rho * t[i], 2 * b[i] - 2 * y[i] + rho * b[i],
                              -rho * b[i] * t[i]])
            real = roots.real[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots))]
            pos = [r for r in real if r >= 0]
            choices += len(pos) > 1
            best = min(pos, key=lambda r: _lagrangian(r, y[i], b[i], rho, t[i]))
            assert _lagrangian(m[i], y[i], b[i], rho, t[i]) <= \
                _lagrangian(best, y[i], b[i], rho, t[i]) + 1e-12
        assert choices > 100

    def test_continuity_to_zero_background(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.1, 5, 500)
        y = rng.uniform(0.1, 10, 500)
        rho = 3.0
        m0 = update_v_magnitude_bpos(t, y, np.zeros_like(t), rho)
        meps = update_v_magnitude_bpos(t, y, np.full_like(t, 1e-12), rho)
        assert np.max(np.abs(m0 - meps)) < 1e-4

    def test_nonpositive_background_rejected(self):
        with pytest.raises(ValueError):
            update_v_magnitude_bpos(1.0, 1.0, -1.0, 1.0)

    def test_zero_target_and_counts_gives_zero(self):
        # t = 0, y = 0: m = 0 is the only real root
        for b, rho in ((0.1, 8.0), (2.0, 0.5)):
            assert update_v_magnitude_bpos(0.0, 0.0, b, rho) == 0.0

    def test_zero_counts_closed_form(self):
        # at y = 0 the cubic is (m^2 + b)((2+rho) m - rho t)
        t = np.array([0.0, 0.3, 2.0, 17.5, 1e-200])
        for rho in (8.0, 0.5):
            m = update_v_magnitude_bpos(t, 0.0, np.full(t.size, 0.1), rho)
            assert np.array_equal(m, rho * t / (2.0 + rho))
            assert m[0] == 0.0

    def test_mixed_rows_match_every_row_cubic(self):
        # oracle: every nonnegative real root from np.roots and the Lagrangian pick
        rng = np.random.default_rng(4)
        n = 4000
        t = rng.uniform(0, 6, n)
        t[::7] = 0.0
        y = rng.integers(0, 4, n).astype(float)
        b = rng.uniform(0.05, 2.0, n)
        for rho in (8.0, 1.5):
            want = np.empty(n)
            for i in range(n):
                roots = np.roots([2 + rho, -rho * t[i], 2 * b[i] - 2 * y[i] + rho * b[i],
                                  -rho * b[i] * t[i]])
                real = roots.real[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots))]
                pos = real[real >= 0]
                want[i] = min(pos, key=lambda r: _lagrangian(r, y[i], b[i], rho, t[i]))
            m = update_v_magnitude_bpos(t, y, b, rho)
            assert np.all(np.abs(m - want) <= 1e-13 * np.maximum(np.abs(want), 1e-300))

    def test_empty_and_one_row_arrays_give_arrays(self):
        # no positive count leaves the split's rows empty; only a scalar t
        # gives a float
        empty = update_v_magnitude_bpos(np.zeros(0), np.zeros(0), np.zeros(0), 8.0)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        one = update_v_magnitude_bpos(np.array([2.0]), np.array([1.0]), np.array([0.1]), 8.0)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one[0] == update_v_magnitude_bpos(2.0, 1.0, 0.1, 8.0)
        assert isinstance(update_v_magnitude_bpos(2.0, 1.0, 0.1, 8.0), float)
        v = update_v(np.zeros(0, complex), np.zeros(0, complex), np.zeros(0), np.zeros(0), 8.0)
        assert v.shape == (0,)

    def test_a_cubic_set_up_once_gives_each_update_bit_for_bit(self):
        # `run_admm` sets the cubic up once per run: each update equals the
        # cubic's largest root taken with every coefficient formed per call,
        # in the same order, bit for bit
        rng = np.random.default_rng(11)
        y = rng.poisson(0.5, 200).astype(float)
        b = rng.uniform(0.0, 0.3, 200)
        rho = 8.0
        cubic = MagnitudeCubic.of(y, b, rho, y.shape)
        pos = np.flatnonzero(y > 0)
        for _ in range(3):
            t = np.abs(rng.standard_normal(200))
            tp, yp, bp = t[pos], y[pos], b[pos]
            want = rho * t / (2.0 + rho)
            want[pos] = cubic_largest_root(2.0 + rho, -rho * tp, 2.0 * bp - 2.0 * yp + rho * bp,
                                           -rho * bp * tp)
            assert update_v_magnitude_bpos(t, cubic).tobytes() == want.tobytes()
            assert update_v_magnitude_bpos(t, y, b, rho).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="set up for shape"):
            update_v_magnitude_bpos(np.ones(3), cubic)
        with pytest.raises(ValueError, match="b >= 0"):
            MagnitudeCubic.of(y, -b, rho, y.shape)

    def test_all_zero_counts_solve_no_cubic(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return cubic_largest_root(*args)
        monkeypatch.setattr(admm, "cubic_largest_root", counted)
        model = random_gaussian_model(64, 8, seed=3, background=0.1)
        obj = PoissonObjective(model, np.zeros(model.rows))
        x0 = SignalVector(np.ones(model.cols, dtype=complex))
        state = run_admm(obj, x0, 10)
        assert state.status == "ok" and len(state.trace) == 10
        assert not calls


class TestXUpdate:
    def test_identity_passthrough(self):
        m = DenseModel(np.eye(3))
        v = np.array([1.0, 2.0j, -1.0 + 0.5j])
        x0 = np.zeros(3, dtype=complex)
        out = update_x(m, m.apply(x0), v, np.zeros(3, dtype=complex), FieldTag.COMPLEX, x0)
        assert np.allclose(out, v, atol=1e-12)

    def test_masked_dft_diagonal_vs_cg(self):
        m = MaskedDftModel(make_masks(3, DIRECT_MAX_COLS + 8, seed=4))
        rng = np.random.default_rng(5)
        v = rng.standard_normal(m.rows) + 1j * rng.standard_normal(m.rows)
        zero = np.zeros(m.cols, dtype=complex)
        fast = update_x(m, m.apply(zero), v, np.zeros(m.rows, dtype=complex),
                        FieldTag.COMPLEX, zero)
        # force the CG path (N > DIRECT_MAX_COLS) by hiding the diagonal
        diag_fn = m.normal_diag
        m.normal_diag = lambda: None
        slow = update_x(m, m.apply(zero), v, np.zeros(m.rows, dtype=complex),
                        FieldTag.COMPLEX, zero)
        m.normal_diag = diag_fn
        assert np.linalg.norm(fast - slow) < 1e-8 * max(1.0, np.linalg.norm(fast))

    def test_huber_update_on_a_dft_model_builds_no_circulant_gram(self, monkeypatch):
        # A'A of a masked DFT is diagonal: the Huber loop multiplies by it,
        # with no FFT, at any width
        built = []

        class CountedGram(operators.CirculantGram):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)
        monkeypatch.setattr(operators, "CirculantGram", CountedGram)
        m = MaskedDftModel(make_masks(3, DIRECT_MAX_COLS + 8, seed=4))
        assert m.toeplitz_gram(1.0, FieldTag.REAL) is not None and built == [1]
        built.clear()
        rng = np.random.default_rng(8)
        v = rng.standard_normal(m.rows) + 1j * rng.standard_normal(m.rows)
        reg = HuberTV(0.8, 0.2, DiffOp(m.cols))
        x0 = np.zeros(m.cols, dtype=complex)
        out = update_x(m, m.apply(x0), v, np.zeros(m.rows, dtype=complex), FieldTag.REAL,
                       x0, reg=reg, rho=2.0)
        assert not built
        assert np.all(np.isfinite(out))

    def test_real_field_uses_real_part(self):
        m = DenseModel(np.eye(2))
        v = np.array([1.0 + 2.0j, -3.0 + 1.0j])
        x0 = np.zeros(2, dtype=complex)
        out = update_x(m, m.apply(x0), v, np.zeros(2, dtype=complex), FieldTag.REAL, x0)
        assert np.allclose(out, [1.0, -3.0])

    @pytest.mark.parametrize("field", [FieldTag.COMPLEX, FieldTag.REAL])
    def test_unregularized_cg_solve_meets_the_inner_tolerance(self, field):
        # a NormalOp Gram solves by CG: ADMM keeps INNER_TOL there, whatever
        # tolerance MM's unregularized step uses
        n, rho = DIRECT_MAX_COLS + 8, 2.0
        m = random_gaussian_model(4 * n, n, seed=9)
        quad = operators.quad_form(m, rho, field)
        assert type(quad) is operators.NormalOp
        rng = np.random.default_rng(10)
        v = rng.standard_normal(m.rows) + 1j * rng.standard_normal(m.rows)
        x0 = np.zeros(n, dtype=complex)
        out = update_x(m, m.apply(x0), v, np.zeros(m.rows, dtype=complex), field, x0,
                       rho=rho)
        rhs = realify(rho * m.adjoint(v), field)
        assert np.linalg.norm(quad @ out - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_huber_regularized_solves_normal_condition(self):
        m = random_gaussian_model(12, 4, seed=6)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        reg = HuberTV(0.8, 0.2, DiffOp(4))
        rho = 2.0
        x0 = np.zeros(4, dtype=complex)
        out = update_x(m, m.apply(x0), v, np.zeros(12, dtype=complex), FieldTag.COMPLEX,
                       x0, reg=reg, rho=rho)
        # stationarity of (rho/2)||Ax - v||^2 + beta R(x)
        g = rho * m.adjoint(m.apply_linear(out) - v) + reg.gradient(out)
        assert np.linalg.norm(g) < 1e-6 * max(1.0, np.linalg.norm(v))

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("rho", [1.0, 3.0])
    def test_canonical_dft_offset_from_a_nonzero_start(self, field, rho):
        # A x = scale (F x + offset): the x-update is the least-squares fit of
        # the linear part to v + eta - scale * offset, whatever x0 and rho.
        # The reference lies off the image's columns, so A' offset is zero up
        # to rounding, and `ax`, which carries the offset, must not add it
        rng = np.random.default_rng(12)
        m = CanonicalDftModel((4, 3), rng.uniform(0.0, 1.0, (4, 2)), scale=0.7)
        v = rng.standard_normal(m.rows) + 1j * rng.standard_normal(m.rows)
        eta = 0.1 * (rng.standard_normal(m.rows) + 1j * rng.standard_normal(m.rows))
        x0 = rng.uniform(0.5, 1.5, m.cols) + 0j
        if not field.is_real:
            x0 += 1j * rng.standard_normal(m.cols)
        out = update_x(m, m.apply(x0), v, eta, field, x0, rho=rho)
        a, target = m.densify(), v + eta - m.scale * m.offset_raw
        if field.is_real:
            a, target = np.vstack([a.real, a.imag]), np.r_[target.real, target.imag]
        expected = np.linalg.lstsq(a, target, rcond=None)[0]
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)


class TestDualUpdate:
    def test_dual_unchanged_when_feasible(self):
        eta = np.array([0.1 + 0.2j])
        v = np.array([1.0 + 1.0j])
        assert np.allclose(update_dual(eta, v, v), eta)

    def test_dual_two_step_trace(self):
        eta = np.zeros(2, dtype=complex)
        v1, ax1 = np.array([1.0, 2.0 + 0j]), np.array([0.5, 1.0 + 0j])
        v2, ax2 = np.array([0.2, 0.0 + 0j]), np.array([0.1, 0.3 + 0j])
        eta = update_dual(eta, v1, ax1)
        eta = update_dual(eta, v2, ax2)
        assert np.allclose(eta, (v1 - ax1) + (v2 - ax2))


class TestRunAdmm:
    def _instance(self, n=8, m=64, seed=0, noiseless=False):
        model = random_gaussian_model(m, n, seed=seed, background=0.1)
        rng = np.random.default_rng(seed + 10)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        calibrate_scale(model, x, 0.25)
        if noiseless:
            y = model.intensities(x)
        else:
            y = simulate_poisson(model, x, seed + 20).y
        return model, x, PoissonObjective(model, y)

    def test_zero_iterations(self):
        model, x, obj = self._instance()
        x0 = SignalVector(np.ones(model.cols, dtype=complex))
        state = run_admm(obj, x0, 0)
        assert state.trace == []
        assert np.array_equal(state.x, x0.values)

    def test_primal_residual_decreases_noiseless(self):
        model, x, obj = self._instance(n=8, m=64, seed=1, noiseless=True)
        x0 = initialize(model, obj.y, seed=1)
        state = run_admm(obj, x0, 600, rho0=8.0)
        assert state.trace[-1].cost <= state.trace[0].cost
        assert state.status == "ok"
        # noiseless counts: x minimizes the cost, and ADMM converges to it
        # (NRMSE 9.6e-8 at 300 iterations, 7.1e-12 at 500, 6.1e-14 at 600,
        # and x's cost to every printed digit), so the primal residual
        # Ax - v vanishes too; from iteration 10 on the cost rises by
        # rounding at most
        assert nrmse(state.x, x) <= 1e-8
        assert state.trace[-1].cost == pytest.approx(obj.cost(x), rel=1e-10)
        costs = state.costs()[9:]
        assert np.all(np.diff(costs) <= 1e-12 * np.abs(costs[:-1]))

    def test_b0_and_bpos_paths_agree_for_tiny_background(self):
        rng = np.random.default_rng(9)
        a = (rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4))) / 2
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = np.round(np.abs(a @ x) ** 2)
        m0 = DenseModel(a.copy(), background=0.0)
        meps = DenseModel(a.copy(), background=1e-12)
        x0 = SignalVector(x + 0.1 * rng.standard_normal(4))
        s0 = run_admm(PoissonObjective(m0, y), x0, 30, rho0=8.0)
        seps = run_admm(PoissonObjective(meps, y), x0, 30, rho0=8.0)
        assert np.linalg.norm(s0.x - seps.x) < 1e-4 * max(1.0, np.linalg.norm(s0.x))

    def test_background_zero_on_some_rows(self):
        # raised `update_v_magnitude_bpos requires b > 0`, for a valid model
        b = np.where(np.arange(64) % 2 == 0, 0.0, 0.1)
        model = random_gaussian_model(64, 8, seed=4, background=b)
        signal = blocks(8, seed=0)
        calibrate_scale(model, signal.values, 0.25)
        obj = PoissonObjective(model, simulate_poisson(model, signal.values, 4).y,
                               field=signal.field)
        state = run_admm(obj, initialize(model, obj.y, field=signal.field, seed=4), 30)
        assert state.status == "ok" and len(state.trace) == 30
        assert np.all(np.isfinite(state.costs()))

    @pytest.mark.parametrize("field", list(FieldTag))
    @pytest.mark.parametrize("seed", range(6))
    def test_huge_counts_end_in_a_defined_status(self, seed, field):
        # at y = 1e150 an overflowed discriminant passed for a repeated root,
        # and the update raised RuntimeError (no nonnegative root); then the
        # magnitude cubic's powers overflowed once |A x - eta| reached about
        # 1e74, and every run ended `terminated: non-finite cost`
        model = random_gaussian_model(64, 8, seed=seed, background=0.1)
        calibrate_scale(model, blocks(8).values, 0.25)
        for y in (1e300, 1e200, 1e150):
            obj = PoissonObjective(model, np.full(64, y), field=field)
            with np.errstate(all="ignore"):
                state = run_admm(obj, SignalVector(np.full(8, 1e-3), field), 5)
            assert state.status == "ok" and len(state.trace) == 5, (y, state.status)
            assert np.all(np.isfinite(state.costs()))

    def test_huber_regularized_run_decreases_cost(self):
        model, x, obj = self._instance(n=8, m=64, seed=3)
        reg = HuberTV(2.0, 0.1, DiffOp(8))
        x0 = initialize(model, obj.y, seed=3)
        state = run_admm(obj, x0, 60, rho0=8.0, reg=reg)

        def total(z):
            return obj.cost(z) + reg.beta * reg.value(z)

        assert state.trace[-1].cost < total(x0.values)

    def test_canonical_dft_runs(self):
        # the zero-padded DFT has measurements with t = 0 and y = 0
        sig = disk(16, 16)
        model = CanonicalDftModel(sig.dims, sig.values.real.reshape(sig.dims),
                                  background=0.1)
        calibrate_scale(model, sig.values, 0.25)
        y = simulate_poisson(model, sig.values, 5).y
        obj = PoissonObjective(model, y, field=sig.field)
        x0 = initialize(model, y, field=sig.field, seed=5)
        state = run_admm(obj, x0, 10)
        assert state.status == "ok"
        assert len(state.trace) == 10
        assert np.all(np.isfinite(state.costs()))


def oracle_instance(field, counts, m=96, n=12, seed=0):
    """(objective, x0) of a small dense instance whose counts are mostly zero
    (mean 0.25), all positive, or all zero; x0 is the spectral start of the
    mean-0.25 counts, which all-zero counts would make zero."""
    sig = random_complex(n, seed=seed) if field is FieldTag.COMPLEX else blocks(n, seed=seed)
    model = random_gaussian_model(m, n, seed=seed + 5, background=0.1)
    calibrate_scale(model, sig.values, 0.25)
    y = simulate_poisson(model, sig.values, seed + 6).y
    x0 = initialize(model, y, field=field, iters=50, seed=seed)
    if counts == "positive":
        y = y + 1.0
    elif counts == "zero":
        y = np.zeros(m)
    return PoissonObjective(model, y, field=field), x0


class TestAgainstFullRowOracle:
    """`run_admm` keeps the zero-count rows of its split in N-space on a dense
    model; `oracles.admm_full_rows` keeps v and eta on every row. At the
    same fixed penalty they agree to rounding."""

    ITERS = 40

    def _compare(self, obj, x0, rho0, reg):
        state = run_admm(obj, x0, self.ITERS, rho0=rho0, reg=reg)
        costs, x = admm_full_rows(obj, x0.values, self.ITERS, rho0, reg)
        assert state.status == "ok" and len(state.trace) == self.ITERS
        got = state.costs()
        assert np.all(np.abs(got - costs) <= 1e-12 * np.abs(costs))
        assert np.linalg.norm(state.x - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("counts", ["sparse", "positive", "zero"])
    @pytest.mark.parametrize("huber", [False, True], ids=["plain", "huber"])
    @pytest.mark.parametrize("field", list(FieldTag))
    def test_costs_and_iterate(self, field, huber, counts):
        obj, x0 = oracle_instance(field, counts)
        if counts == "positive":
            assert obj.positive.size == obj.model.rows
        reg = HuberTV(2.0, 0.1, DiffOp(obj.model.cols)) if huber else None
        self._compare(obj, x0, 8.0, reg)

    @pytest.mark.parametrize("huber", [False, True], ids=["plain", "huber"])
    @pytest.mark.parametrize("field", list(FieldTag))
    def test_large_penalty_stays_fixed(self, field, huber, monkeypatch):
        # from rho0 = 128 the dual residual is large against the primal one,
        # where a residual-balancing rule would halve rho at k = 10, 20, ...
        # and form a new Gram each time; the penalty is fixed, so the run
        # forms its Gram once
        obj, x0 = oracle_instance(field, "sparse")
        reg = HuberTV(2.0, 0.1, DiffOp(obj.model.cols)) if huber else None
        penalties = []
        quad_form = admm.quad_form

        def counted(model, w, field):
            penalties.append(w)
            return quad_form(model, w, field)
        monkeypatch.setattr(admm, "quad_form", counted)
        run_admm(obj, x0, self.ITERS, rho0=128.0, reg=reg)
        assert penalties == [128.0]
        monkeypatch.undo()
        self._compare(obj, x0, 128.0, reg)
