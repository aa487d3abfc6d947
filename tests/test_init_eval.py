"""Spectral initialization, scale fitting, phase correction, and metrics."""

import warnings

import numpy as np
import pytest

from oracles import fft_instance
from poisson_pr.init_eval import (
    PSNR_CAP_DB,
    error_metrics,
    finalize_init,
    initialize,
    nrmse,
    phase_correct,
    psnr,
    scale_fit,
    spectral_init,
)
from poisson_pr.numerics import lanczos_top, real_dot
from poisson_pr.operators import (
    CanonicalDftModel,
    DenseModel,
    FieldTag,
    MaskedDftModel,
    calibrate_scale,
    make_masks,
    quad_form,
    random_gaussian_model,
    simulate_poisson,
)
from poisson_pr.phantoms import disk


class TestSpectralInit:
    def test_diagonal_model_picks_argmax(self):
        m = DenseModel(np.eye(4))
        y = np.array([1.0, 7.0, 2.0, 0.0])
        v, warns = spectral_init(m, y, iters=500)
        assert warns == []
        assert abs(abs(v[1]) - 1.0) < 1e-8
        assert np.linalg.norm(np.delete(v, 1)) < 1e-6

    def test_all_zero_counts_random_with_warning(self):
        m = DenseModel(np.eye(3))
        v, warns = spectral_init(m, np.zeros(3), seed=5)
        assert len(warns) == 1
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: random_gaussian_model(48, 8, seed=0),  # a DenseGram
        lambda: random_gaussian_model(160, 80, seed=0),  # a NormalOp
        lambda: MaskedDftModel(make_masks(3, 80, seed=0)),  # a CirculantGram
        lambda: CanonicalDftModel((8, 8), disk(8, 8).values.real.reshape(8, 8)),
    ], ids=["dense-gram", "normal-op", "masked-dft", "canonical-dft"])
    def test_all_zero_counts_return_the_lanczos_start(self, build):
        # the zero operator leaves lanczos_top at its random unit start, bit
        # for bit, with the one warning and no numpy warning
        model = build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, warns = spectral_init(model, np.zeros(model.rows), seed=5)
        _, start = lanczos_top(lambda z: z, model.cols, max_steps=0, seed=5)
        assert v.dtype == start.dtype and v.tobytes() == start.tobytes()
        assert warns == ["all-zero measurements: spectral operator is zero, "
                         "returning a random unit vector"]

    def test_ritz_residual_on_the_canonical_dft(self):
        obj, _ = fft_instance("canonical")
        v, _ = spectral_init(obj.model, obj.y, seed=0)
        q = quad_form(obj.model, obj.y / (obj.y + 1.0), FieldTag.COMPLEX)
        qv = q @ v
        theta = real_dot(v, qv)
        assert np.linalg.norm(qv - theta * v) <= 1e-10 * theta

    @pytest.mark.parametrize("kind", ["masked", "canonical"])
    def test_calls_no_lapack_routine(self, kind, monkeypatch):
        # LAPACK's code is paged in on its first call; no FFT-model path
        # makes one, and the initializer keeps it so
        obj, _ = fft_instance(kind)

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK call")
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "solve", "inv", "svd",
                     "qr", "cholesky", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        v, warns = spectral_init(obj.model, obj.y, seed=0)
        assert warns == [] and np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)

    def test_rayleigh_residual_small(self):
        m = random_gaussian_model(128, 16, seed=0, background=0.1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        calibrate_scale(m, x, 0.25)
        y = simulate_poisson(m, x, 2).y
        v, _ = spectral_init(m, y, iters=300, seed=3)
        w = y / (y + 1.0)
        hv = m.adjoint(w * m.apply_linear(v))
        lam = float(np.real(np.vdot(v, hv)))
        assert np.linalg.norm(hv - lam * v) < 1e-6

    def test_unit_norm(self):
        m = random_gaussian_model(32, 8, seed=4)
        y = np.arange(32, dtype=float)
        v, _ = spectral_init(m, y)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestScaleFit:
    def test_basis_vector_closed_form(self):
        # A = I, x0 = e_1: alpha = sqrt((y-b)_1 |1|^2) / ||e_1||_4^2 = sqrt(4)
        m = DenseModel(np.eye(2))
        x0 = np.array([1.0, 0.0])
        y = np.array([4.0, 123.0])  # second entry masked by zero weight
        alpha, warns = scale_fit(m, y, x0)
        assert warns == []
        assert alpha == pytest.approx(2.0)

    def test_counts_equal_background_gives_zero(self):
        m = DenseModel(np.eye(2), background=0.5)
        alpha, _ = scale_fit(m, np.full(2, 0.5), np.array([1.0, 1.0]))
        assert alpha == 0.0

    def test_negative_numerator_clipped_with_warning(self):
        m = DenseModel(np.eye(2), background=2.0)
        alpha, warns = scale_fit(m, np.zeros(2), np.array([1.0, 1.0]))
        assert alpha == 0.0
        assert len(warns) == 1

    def test_zero_field_rejected(self):
        m = DenseModel(np.eye(2))
        with pytest.raises(ValueError):
            scale_fit(m, np.ones(2), np.zeros(2))

    def test_minimizes_ls_objective_on_grid(self):
        m = random_gaussian_model(64, 8, seed=5, background=0.1)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        calibrate_scale(m, x, 0.25)
        y = simulate_poisson(m, x, 7).y
        x0, _ = spectral_init(m, y, seed=8)
        alpha, _ = scale_fit(m, y, x0)
        a2 = np.abs(m.apply(x0)) ** 2

        def ls(a):
            return float(np.sum((y - m.background - a * a * a2) ** 2))

        grid = np.linspace(0.0, 2.0 * alpha + 1.0, 10_000)
        assert ls(alpha) <= min(ls(a) for a in grid) + 1e-9 * max(ls(alpha), 1.0)


class TestFinalizeInit:
    def test_nonnegative_absolute_value(self):
        x0 = np.array([-1.0, 2.0, -0.5 + 0.5j])
        out = finalize_init(x0, 2.0, FieldTag.REAL_NONNEGATIVE)
        assert np.all(out.real >= 0)
        assert np.all(out.imag == 0)
        assert np.allclose(out.real, 2.0 * np.abs(x0))

    def test_complex_scaled_unchanged(self):
        x0 = np.array([1.0 + 1.0j, -2.0j])
        assert np.allclose(finalize_init(x0, 3.0, FieldTag.COMPLEX), 3.0 * x0)

    def test_zero_alpha(self):
        assert np.all(finalize_init(np.ones(3), 0.0, FieldTag.COMPLEX) == 0)

    def test_initialize_composite(self):
        m = random_gaussian_model(96, 12, seed=9, background=0.1)
        rng = np.random.default_rng(10)
        x = np.abs(rng.standard_normal(12))
        calibrate_scale(m, x, 0.25)
        y = simulate_poisson(m, x, 11).y
        sig = initialize(m, y, field=FieldTag.REAL_NONNEGATIVE, seed=12)
        assert sig.field is FieldTag.REAL_NONNEGATIVE
        assert np.min(sig.values.real) >= 0.0


class TestPhaseCorrect:
    def test_removes_injected_phase(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        for theta in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            x_hat = np.exp(1j * theta) * x
            assert np.allclose(phase_correct(x_hat, x), x, atol=1e-12)

    def test_real_aligned_unchanged(self):
        x = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.allclose(phase_correct(x, x), x)

    def test_zero_inner_product_convention(self):
        x_hat = np.array([1.0 + 0j, 0.0])
        x = np.array([0.0, 1.0 + 0j])
        assert np.allclose(phase_correct(x_hat, x), x_hat)

    def test_optimal_over_phase_grid(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x_hat = x + 0.3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        corrected = phase_correct(x_hat, x)
        err = np.linalg.norm(corrected - x)
        for theta in np.linspace(0, 2 * np.pi, 360, endpoint=False):
            assert err <= np.linalg.norm(np.exp(1j * theta) * x_hat - x) + 1e-12


class TestMetrics:
    def test_exact_recovery(self):
        x = np.array([1.0, -2.0, 0.5], dtype=complex)
        assert nrmse(x, x) == 0.0
        assert psnr(x, x) == PSNR_CAP_DB

    def test_zero_estimate(self):
        x = np.array([3.0, 4.0], dtype=complex)
        assert nrmse(np.zeros(2, dtype=complex), x) == pytest.approx(1.0)

    def test_phase_invariance(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert nrmse(np.exp(1j * np.pi / 3) * x, x) < 1e-12

    def test_psnr_value(self):
        x = np.array([1.0, 1.0], dtype=complex)
        x_hat = np.array([1.0, 0.9], dtype=complex)
        # psnr uses the phase-corrected error; verify against direct formula
        err2 = np.sum(np.abs(phase_correct(x_hat, x) - x) ** 2)
        expected = 10 * np.log10(1.0 * 2 / err2)
        assert psnr(x_hat, x) == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_error_metrics_agree_with_nrmse_and_psnr(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        metrics = error_metrics(x)
        for x_hat in (np.exp(0.7j) * x + 0.1 * rng.standard_normal(64),
                      rng.standard_normal(64).astype(complex), np.zeros(64, complex)):
            nr, ps = metrics(x_hat)
            assert abs(nr - nrmse(x_hat, x)) <= 1e-14 * nrmse(x_hat, x)
            assert abs(ps - psnr(x_hat, x)) <= 1e-14 * abs(psnr(x_hat, x))

    def test_error_metrics_of_an_exact_recovery(self):
        x = np.array([1.0, -2.0, 0.5], dtype=complex)
        assert error_metrics(x)(np.exp(0.3j) * x)[1] == psnr(np.exp(0.3j) * x, x)
        assert error_metrics(x)(x) == (0.0, PSNR_CAP_DB)

    def test_psnr_custom_peak(self):
        x = np.array([2.0, 0.0], dtype=complex)
        x_hat = np.array([2.0, 0.1], dtype=complex)
        assert psnr(x_hat, x, peak=1.0) < psnr(x_hat, x)
