"""Forward models: apply/adjoint fidelity, calibration, simulation, file IO."""

import gc
import weakref

import numpy as np
import pytest

from oracles import cg_plain
from poisson_pr.mm import curvature_improved
from poisson_pr.numerics import DegenerateIterateError
from poisson_pr.operators import (
    ACTIVE_SET_TIE,
    DIRECT_MAX_COLS,
    CanonicalDftModel,
    CirculantGram,
    DenseGram,
    DenseModel,
    DiagonalGram,
    FieldTag,
    ForwardModel,
    MaskedDftModel,
    MeasurementSet,
    NormalOp,
    SignalVector,
    _normal_gram,
    calibrate_scale,
    gram,
    load_file_matrix,
    load_pgm,
    make_masks,
    quad_form,
    random_gaussian_model,
    save_file_matrix,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks, disk


def _rand_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def all_variants():
    """One small instance of each of the four model variants."""
    rng = np.random.default_rng(11)
    dense = DenseModel(_rand_vec(rng, 12).reshape(4, 3))
    gauss = random_gaussian_model(8, 4, seed=3)
    masked = MaskedDftModel(make_masks(2, 4, seed=5))
    canon = CanonicalDftModel((2, 2), np.array([[0.5, 1.0], [0.2, 0.0]]))
    return [("dense", dense), ("gaussian", gauss),
            ("masked_dft", masked), ("canonical_dft", canon)]


class TestSignalVector:
    def test_real_field_rejects_imag(self):
        with pytest.raises(ValueError):
            SignalVector(np.array([1.0 + 1.0j]), field=FieldTag.REAL)

    def test_nonneg_field_rejects_negative(self):
        with pytest.raises(ValueError):
            SignalVector(np.array([-1.0, 1.0]), field=FieldTag.REAL_NONNEGATIVE)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SignalVector(np.array([]))


class TestApply:
    def test_identity(self):
        m = DenseModel(np.eye(2))
        x = np.array([1.0, 1.0j])
        assert np.allclose(m.apply(x), x)

    def test_masked_dft_impulse_flat_spectrum(self):
        m = MaskedDftModel(np.ones((1, 2)))
        assert m.rows == 3  # oversampled length 2N-1
        out = m.apply(np.array([1.0, 0.0]))
        assert np.allclose(np.abs(out), 1.0, atol=1e-12)

    def test_canonical_zero_signal_gives_reference_spectrum(self):
        ref = np.array([[1.0, 2.0], [0.5, 0.0]])
        m = CanonicalDftModel((2, 2), ref)
        out = m.apply(np.zeros(4))
        # the reference alone: DFT of [0 | 0 | R]
        full = np.zeros(m.concat_dims, dtype=complex)
        full[:, -2:] = ref
        expected = np.fft.fft2(full, s=m.fft_dims).ravel()
        assert np.allclose(out, expected, atol=1e-12)
        assert np.allclose(np.abs(out) ** 2,
                           np.abs(m.apply(np.zeros(m.cols, dtype=complex))) ** 2)

    def test_dimension_mismatch_reports_both(self):
        m = DenseModel(np.eye(3))
        with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
            m.apply(np.zeros(2))

    def test_scale_applied(self):
        m = DenseModel(np.eye(2), scale=3.0)
        assert np.allclose(m.apply(np.array([1.0, 2.0])), [3.0, 6.0])

    @pytest.mark.parametrize("name,model", all_variants())
    def test_offset_and_scale_in_place_bit_identical(self, name, model):
        # `apply` and `apply_linear` add the offset and scale `_apply`'s fresh
        # result in place: the values of scale * (A x + offset), and x and
        # the offset are left as they were
        model.scale = 0.37
        rng = np.random.default_rng(17)
        x = _rand_vec(rng, model.cols)
        keep = x.copy()
        raw = model._apply(x.copy())
        offset = 0.0 if model.offset_raw is None else model.offset_raw
        offset_before = np.copy(offset)
        assert model.apply(x).tobytes() == (model.scale * (raw + offset)).tobytes()
        assert model.apply_linear(x).tobytes() == (model.scale * raw).tobytes()
        assert x.tobytes() == keep.tobytes()
        assert np.array_equal(offset, offset_before)
        assert model.apply(x) is not model.apply(x)


class TestAdjoint:
    def test_identity(self):
        m = DenseModel(np.eye(2))
        v = np.array([2.0, 3.0j])
        assert np.allclose(m.adjoint(v), v)

    def test_dimension_mismatch(self):
        m = DenseModel(np.ones((4, 3)))
        with pytest.raises(ValueError, match="adjoint"):
            m.adjoint(np.zeros(3))

    @pytest.mark.parametrize("name,model", all_variants())
    def test_adjoint_consistency(self, name, model):
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = _rand_vec(rng, model.cols)
            z = _rand_vec(rng, model.rows)
            lhs = np.vdot(z, model.apply_linear(x))
            rhs = np.vdot(model.adjoint(z), x)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0), name

    @pytest.mark.parametrize("name,model", all_variants())
    def test_densified_matches_apply_and_adjoint(self, name, model):
        a = model.densify()
        rng = np.random.default_rng(13)
        x = _rand_vec(rng, model.cols)
        z = _rand_vec(rng, model.rows)
        assert np.allclose(model.apply_linear(x), a @ x, atol=1e-12), name
        assert np.allclose(model.adjoint(z), a.conj().T @ z, atol=1e-12), name

    def test_masked_dft_adjoint_against_densified(self):
        m = MaskedDftModel(make_masks(2, 4, seed=1))
        a = m.densify()
        rng = np.random.default_rng(2)
        v = _rand_vec(rng, m.rows)
        assert np.allclose(m.adjoint(v), a.conj().T @ v, atol=1e-12)

    @pytest.mark.parametrize("name,model", all_variants())
    def test_normal_diag_matches_densified(self, name, model):
        diag = model.normal_diag()
        if diag is None:
            return
        a = model.densify()
        h = a.conj().T @ a
        assert np.allclose(np.diag(h).real, diag, atol=1e-10), name
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) < 1e-10, f"{name}: A'A not diagonal"


def gram_models():
    """A scaled dense model and a masked DFT at the direct-solve width, whose
    densify builds A column by column from apply_linear."""
    rng = np.random.default_rng(21)
    dense = DenseModel(_rand_vec(rng, 40 * 7).reshape(40, 7), scale=0.6)
    masked = MaskedDftModel(make_masks(2, DIRECT_MAX_COLS, seed=3), scale=1.7)
    return {"dense": dense, "masked": masked}


def gram_weights(kind, rows):
    """Gram weights: a scalar, uniform ones, most rows at the minimum 2 (MM's
    curvature at a zero count), one constant (no row above the minimum), and
    a third of the rows at 0 (the spectral initializer's y/(y+1))."""
    rng = np.random.default_rng(22)
    if kind == "scalar":
        return 2.5
    w = rng.uniform(0.0, 3.0, rows)
    if kind == "mostly-min":
        w = np.where(rng.random(rows) < 0.2, 2.0 + 5.0 * w, 2.0)
    elif kind == "constant":
        w = np.full(rows, 1.7)
    elif kind == "min-zero":
        w[::3] = 0.0
    return w


def explicit_gram(model, w, field):
    """A'diag(w)A from a freshly densified A, the real part for real fields."""
    a = ForwardModel._densify(model)
    h = a.conj().T @ (np.reshape(w, (-1, 1)) * a)
    return h.real if field.is_real else h


class TestGram:
    @pytest.mark.parametrize("name", ["dense", "masked"])
    @pytest.mark.parametrize("field", list(FieldTag))
    @pytest.mark.parametrize("weights", ["scalar", "uniform", "mostly-min", "constant",
                                         "min-zero"])
    def test_matches_the_weighted_product(self, name, field, weights):
        model = gram_models()[name]
        w = gram_weights(weights, model.rows)
        expected = explicit_gram(model, w, field)
        h = gram(model, w, field)
        assert h.shape == (model.cols, model.cols)
        assert h.dtype == (float if field.is_real else complex)
        assert np.linalg.norm(h - expected) <= 1e-12 * np.linalg.norm(expected)
        # A'A is remembered where the smallest weight is positive, and not
        # formed where it is 0
        assert (("gram", field.is_real) in model.memo()) == (np.min(w) > 0)

    @pytest.mark.parametrize("name", ["dense", "masked"])
    def test_real_gram_exactly_symmetric(self, name):
        model = gram_models()[name]
        w = np.random.default_rng(23).uniform(0.5, 2.0, model.rows)
        h = gram(model, w, FieldTag.REAL)
        assert np.array_equal(h, h.T)

    def test_complex_normal_gram_is_the_plain_product(self):
        # at unit weights the complex branch multiplies A itself, with no
        # scaled copy, and gives the plain product bit for bit
        model = random_gaussian_model(96, 7, seed=4)
        a = model.densify()
        h = _normal_gram(model, FieldTag.COMPLEX)
        assert h.dtype == complex and not h.flags.writeable
        assert np.array_equal(h, a.conj().T @ a)


class TestGramMemo:
    @pytest.mark.parametrize("name", ["dense", "masked"])
    @pytest.mark.parametrize("field", [FieldTag.COMPLEX, FieldTag.REAL])
    def test_follows_a_scale_change_and_an_entries_reassignment(self, name, field):
        model = gram_models()[name]
        w = gram_weights("mostly-min", model.rows)
        changes = [lambda: setattr(model, "scale", 1.5 * model.scale)]
        if name == "dense":
            changes.append(lambda: setattr(model, "entries", 0.5j * model.entries))
        gram(model, w, field)
        for change in changes:
            before = model.memo()[("gram", field.is_real)]
            change()
            expected = explicit_gram(model, w, field)
            h = gram(model, w, field)
            assert np.linalg.norm(h - expected) <= 1e-12 * np.linalg.norm(expected)
            assert model.memo()[("gram", field.is_real)] is not before

    def test_freed_with_its_model(self):
        model = random_gaussian_model(64, 6, seed=12)
        w = gram_weights("mostly-min", model.rows)
        q = quad_form(model, w, FieldTag.REAL)
        q.solve(np.ones(model.cols), 1, 0.0)  # remembers A'A's spectrum as well
        refs = [weakref.ref(model)] + [weakref.ref(v) for v in model.memo().values()]
        assert len(refs) == 4  # the model, A, A'A and A'A's extreme eigenvalues
        del model, q
        gc.collect()
        # nothing outside the model, such as a module-level cache, holds them
        assert all(r() is None for r in refs)


def toeplitz_models():
    """The two FFT models: masked DFTs (embedded at a power of two >= 2N - 1)
    and canonical DFTs with every axis embedded, wrapped (the transform is
    shorter than 2s - 1) or padded by `fft_dims`."""
    rng = np.random.default_rng(31)
    ref = rng.uniform(0.0, 1.0, (5, 4))
    return {
        "masked-2": MaskedDftModel(make_masks(3, 2, seed=1), scale=0.7),
        "masked-5": MaskedDftModel(make_masks(2, 5, seed=2), scale=1.3),
        "masked-70": MaskedDftModel(make_masks(4, 70, seed=3), scale=0.4),
        # rows wrap at 5 < 9, columns embedded at 8
        "canonical": CanonicalDftModel((5, 3), ref, scale=0.6),
        # both axes wrap: 5 < 9 rows, 3 + 0 + 1 = 4 < 5 columns
        "canonical-wrapped": CanonicalDftModel((5, 3), ref[:, :1], pad_width=0),
        # fft_dims (13, 9) pads both axes: embedded at 16 and 8
        "canonical-padded": CanonicalDftModel((5, 3), ref, pad_width=0,
                                              fft_dims=(13, 9), scale=1.1),
    }


class TestCirculantGram:
    @pytest.mark.parametrize("name", list(toeplitz_models()))
    @pytest.mark.parametrize("field", list(FieldTag))
    @pytest.mark.parametrize("vector", [False, True])
    def test_matches_the_normal_op(self, name, field, vector):
        model = toeplitz_models()[name]
        rng = np.random.default_rng(32)
        w = rng.uniform(0.0, 3.0, model.rows) if vector else 2.5
        z = _rand_vec(rng, model.cols)
        if field.is_real:
            z = z.real
        expected = NormalOp(model, w, field) @ z
        out = model.toeplitz_gram(w, field)(z)
        assert out.dtype == (float if field.is_real else complex)
        assert out.shape == (model.cols,)
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("name, sizes", [
        ("masked-2", (4,)), ("masked-5", (16,)), ("masked-70", (256,)),
        ("canonical", (5, 8)), ("canonical-wrapped", (5, 4)),
        ("canonical-padded", (16, 8)),
    ])
    def test_circulant_sizes(self, name, sizes):
        model = toeplitz_models()[name]
        assert model.toeplitz_gram(1.0, FieldTag.COMPLEX).sizes == sizes

    def test_workload_sizes(self):
        masked = MaskedDftModel(make_masks(2, 256, seed=4))
        assert masked.toeplitz_gram(1.0, FieldTag.REAL).sizes == (512,)
        canon = CanonicalDftModel((64, 64), np.ones((64, 64)))
        assert canon.fft_dims == (64, 192)
        assert canon.toeplitz_gram(1.0, FieldTag.REAL).sizes == (64, 128)


def mm_curvature_instance(kind):
    """(model, w): a masked DFT of 21 masks (N = 128) or a canonical DFT of a
    24 x 24 disk with a disk reference, at mean count 0.25 and b = 0.1, with
    MM's improved curvatures at the true signal as w."""
    if kind == "masked":
        sig = blocks(128, seed=0)
        model = MaskedDftModel(make_masks(21, 128, seed=3), background=0.1)
    else:
        sig = disk(24, 24)
        model = CanonicalDftModel(sig.dims, sig.values.real.reshape(sig.dims),
                                  background=0.1)
    calibrate_scale(model, sig.values, 0.25)
    y = simulate_poisson(model, sig.values, 4).y
    return model, curvature_improved(model.apply(sig.values), y, model.background)


class CountedSolve:
    """Gram products of one `solve`, counted on its class."""

    def __init__(self, q):
        self.q, self.products = q, 0
        product = type(q).__matmul__

        def counted(gram, z):
            self.products += 1
            return product(gram, z)
        q.__class__ = type("Counted", (type(q),), {"__matmul__": counted})


class TestPreconditionedSolve:
    @pytest.mark.parametrize("kind", ["masked", "canonical"])
    @pytest.mark.parametrize("field", list(FieldTag))
    def test_meets_its_tolerance(self, kind, field):
        model, w = mm_curvature_instance(kind)
        q = quad_form(model, w, field)
        assert isinstance(q, CirculantGram)
        rng = np.random.default_rng(5)
        rhs = _rand_vec(rng, model.cols)
        if field.is_real:
            rhs = rhs.real.astype(complex)
        x = q.solve(rhs, 50, 1e-9)
        assert x.dtype == complex and x.shape == (model.cols,)
        if field.is_real:
            assert np.all(x.imag == 0)
        assert np.linalg.norm(q @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("kind, field, products", [
        # unpreconditioned CG took 17, 18, 16 and 19 products
        ("masked", FieldTag.REAL, 10), ("masked", FieldTag.COMPLEX, 10),
        ("canonical", FieldTag.REAL, 11), ("canonical", FieldTag.COMPLEX, 13),
    ])
    def test_gram_products_per_solve(self, kind, field, products):
        model, w = mm_curvature_instance(kind)
        q = model.toeplitz_gram(w, field)
        rng = np.random.default_rng(8)
        rhs = _rand_vec(rng, model.cols)
        if field.is_real:
            rhs = rhs.real.astype(complex)
        counted = CountedSolve(q)
        q.solve(rhs, 50, 1e-9)
        assert counted.products <= products

    @pytest.mark.parametrize("name", [n for n in toeplitz_models() if "canonical" in n])
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_chan_spectrum_is_the_optimal_circulant_and_positive(self, name, field):
        # T. Chan's circulant C minimizes ||C - Q||_F over the circulants on
        # the unknowns' grid, so its eigenvalues are f_k'Q f_k / N for the
        # grid's Fourier vectors f_k: Rayleigh quotients of a positive
        # definite Q, hence positive
        model = toeplitz_models()[name]
        rng = np.random.default_rng(12)
        q = model.toeplitz_gram(rng.uniform(0.5, 3.0, model.rows), field)
        h, w = model.image_dims
        gram = np.stack([q @ e for e in np.eye(model.cols)], axis=1)
        f = np.kron(np.fft.fft(np.eye(h)), np.fft.fft(np.eye(w)))
        expected = np.einsum("ki,ij,kj->k", f, gram, f.conj()).real.reshape(h, w) / (h * w)
        if field.is_real:
            expected = expected[:, : w // 2 + 1]
        assert q.chan_spectrum.shape == expected.shape
        assert np.all(q.chan_spectrum > 0)
        assert np.allclose(q.chan_spectrum, expected, rtol=1e-12, atol=0.0)

    def test_workload_chan_spectrum_is_positive(self):
        model, w = mm_curvature_instance("canonical")
        for field in (FieldTag.REAL, FieldTag.COMPLEX):
            assert np.all(model.toeplitz_gram(w, field).chan_spectrum > 0)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_a_spectrum_not_positive_leaves_cg_plain(self, field):
        # one weighted frequency: Q has rank one, and Chan's circulant is 0
        # on every other Fourier vector of the grid
        model = toeplitz_models()["canonical"]
        w = np.zeros(model.rows)
        w[0] = 1.0
        q = model.toeplitz_gram(w, field)
        assert q.chan_spectrum is None
        rhs = _rand_vec(np.random.default_rng(16), model.cols)
        if field.is_real:
            rhs = rhs.real.astype(complex)
        plain = cg_plain(q, rhs.real.copy() if field.is_real else rhs, 10, 1e-9)
        assert q.solve(rhs, 10, 1e-9).tobytes() == plain.astype(complex).tobytes()

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_exact_where_the_grid_is_the_image(self, field):
        # no reference and no zero block: the DFT grid is the image, Q is
        # circulant on both axes and Chan's preconditioner is Q itself
        model = CanonicalDftModel((6, 5), np.zeros((6, 0)), pad_width=0)
        assert model.fft_dims == model.image_dims
        rng = np.random.default_rng(13)
        q = model.toeplitz_gram(rng.uniform(0.5, 3.0, model.rows), field)
        rhs = _rand_vec(rng, model.cols)
        if field.is_real:
            rhs = rhs.real.astype(complex)
        counted = CountedSolve(q)
        x = q.solve(rhs, 50, 1e-10)
        assert counted.products == 1
        assert np.linalg.norm(q @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_an_unknown_no_mask_covers_gives_a_finite_solve(self, field):
        masks = make_masks(3, 80, seed=9)
        masks[:, 17] = 0.0
        model = MaskedDftModel(masks, background=0.1)
        rng = np.random.default_rng(14)
        q = model.toeplitz_gram(rng.uniform(2.0, 6.0, model.rows), field)
        assert q.inv_diag[17] == 0.0 and np.all(q.inv_diag[np.arange(80) != 17] > 0)
        z = _rand_vec(rng, model.cols)
        rhs = np.asarray(q @ (z.real if field.is_real else z), dtype=complex)
        with np.errstate(all="raise"):
            x = q.solve(rhs, 50, 1e-9)
        assert np.all(np.isfinite(x)) and x[17] == 0.0
        assert np.linalg.norm(q @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)
        # a right-hand side on the uncovered unknown alone takes no step
        e = np.zeros(model.cols, dtype=complex)
        e[17] = 1.0
        assert np.all(q.solve(e, 50, 1e-9) == 0)

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_normal_op_solve_is_plain_cg_bit_for_bit(self, field):
        model = random_gaussian_model(40, DIRECT_MAX_COLS + 6, seed=4)
        rng = np.random.default_rng(15)
        q = quad_form(model, rng.uniform(0.5, 3.0, model.rows), field)
        assert type(q) is NormalOp
        rhs = _rand_vec(rng, model.cols)
        if field.is_real:
            rhs = rhs.real.astype(complex)
        for iters in (3, 30):
            assert q.solve(rhs, iters, 1e-9).tobytes() == cg_plain(q, rhs, iters, 1e-9).tobytes()


class TestQuadForm:
    def test_gram_up_to_the_direct_width(self):
        model = MaskedDftModel(make_masks(2, DIRECT_MAX_COLS, seed=5))
        w = np.ones(model.rows)
        assert isinstance(quad_form(model, w, FieldTag.REAL), DenseGram)

    def test_circulant_gram_for_the_fft_models(self):
        masked = MaskedDftModel(make_masks(2, DIRECT_MAX_COLS + 1, seed=6))
        canon = CanonicalDftModel((9, 8), np.ones((9, 2)))
        assert canon.cols > DIRECT_MAX_COLS
        for model in (masked, canon):
            w = np.ones(model.rows)
            assert isinstance(quad_form(model, w, FieldTag.COMPLEX), CirculantGram)

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_diagonal_for_a_scalar_weight_on_the_dft_models(self, field):
        # A'A of both DFT models is diagonal, at any width: a scalar weight
        # multiplies by it, with no FFT
        masked = MaskedDftModel(make_masks(3, DIRECT_MAX_COLS + 8, seed=8), scale=0.7)
        canon = CanonicalDftModel((9, 8), np.ones((9, 2)), scale=1.3)
        rng = np.random.default_rng(9)
        for model in (masked, canon):
            z = _rand_vec(rng, model.cols)
            if field.is_real:
                z = z.real
            q = quad_form(model, 2.0, field)
            assert isinstance(q, DiagonalGram)
            assert np.array_equal(q @ z, 2.0 * model.normal_diag() * z)
            assert np.array_equal(q.solve(z, 1, 0.0), z / (2.0 * model.normal_diag()))

    def test_dense_gram_checks_its_rank_once(self, monkeypatch):
        # one eigendecomposition per model, of A'A, on the first solve: a Gram
        # whose weights are positive and spread by a factor of 2.5 (like MM's
        # curvature) is proven to pass the rank check from it, so MM's
        # per-iteration Grams take none, and a Gram never solved takes none
        model = random_gaussian_model(40, 6, seed=10)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(1) or eigvalsh(h))
        rng = np.random.default_rng(11)
        rhs = _rand_vec(rng, model.cols)
        quad_form(model, np.full(model.rows, 2.0), FieldTag.COMPLEX) @ rhs
        assert not calls
        for _ in range(5):
            w = np.where(rng.random(model.rows) < 0.3, 2.0 + 3.0 * rng.random(model.rows), 2.0)
            q = quad_form(model, w, FieldTag.COMPLEX)
            q @ rhs
            for _ in range(3):
                out = q.solve(rhs, 1, 0.0)
            assert np.allclose(q @ out, rhs, rtol=0.0, atol=1e-10 * np.linalg.norm(rhs))
        quad_form(model, 1.0, FieldTag.COMPLEX).solve(rhs, 1, 0.0)
        assert len(calls) == 1
        # a zero weight, or weights spread beyond the proof's bound, keep the
        # Gram's own check, once per Gram
        for w in (np.r_[0.0, np.ones(model.rows - 1)], np.r_[1e-13, np.ones(model.rows - 1)]):
            q = quad_form(model, w, FieldTag.COMPLEX)
            for _ in range(3):
                q.solve(rhs, 1, 0.0)
        assert len(calls) == 3

    def test_normal_op_otherwise(self):
        model = random_gaussian_model(80, DIRECT_MAX_COLS + 1, seed=7)
        assert model.toeplitz_gram(1.0, FieldTag.COMPLEX) is None
        assert isinstance(quad_form(model, 1.0, FieldTag.COMPLEX), NormalOp)


def nonnegative_kkt_residual(h, c, x):
    """||min(x, hx - c)||, zero exactly at the minimizer of 1/2 x'hx - c'x
    over x >= 0."""
    return np.linalg.norm(np.minimum(x, h @ x - c))


def nonnegative_qp_by_supports(h, c):
    """Minimizer of 1/2 x'hx - c'x over x >= 0 by trying every support: the
    oracle for `DenseGram.solve_nonnegative` at small n."""
    n = c.size
    best, best_val = np.zeros(n), 0.0
    for mask in range(1, 2**n):
        s = np.array([(mask >> i) & 1 for i in range(n)], bool)
        x = np.zeros(n)
        x[s] = np.linalg.solve(h[np.ix_(s, s)], c[s])
        val = 0.5 * x @ h @ x - c @ x
        if np.all(x >= 0) and val < best_val:
            best, best_val = x, val
    return best


class TestSolveNonnegative:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_support_oracle_from_any_start(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 6))
        h, c = a.T @ a, rng.standard_normal(6)
        expected = nonnegative_qp_by_supports(h, c)
        q = DenseGram(h, FieldTag.REAL_NONNEGATIVE)
        for x0 in (np.zeros(6), np.ones(6), np.maximum(rng.standard_normal(6), 0.0)):
            out = q.solve_nonnegative(c, x0)
            assert np.all(out >= 0)
            assert np.allclose(out, expected, rtol=0.0, atol=1e-12)
            assert nonnegative_kkt_residual(h, c, out) <= 1e-12 * np.linalg.norm(c)

    def test_zero_gradient_at_the_bound_is_a_kkt_point(self):
        # coordinate 0 ends at the bound with gradient exactly 0, a tie
        # between freeing it and keeping it
        h, c = np.diag([1.0, 2.0, 4.0]), np.array([0.0, 2.0, 4.0])
        out = DenseGram(h, FieldTag.REAL_NONNEGATIVE).solve_nonnegative(c, np.ones(3))
        assert np.array_equal(out, [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("seed", range(30))
    def test_duplicate_columns_end_in_a_kkt_point_or_a_degenerate_status(self, seed):
        # h = a'a with column 4 equal to column 1 (seeds 0-9) or within
        # 1e-16..1e-7 of it: the free-set solve holding both is singular or
        # ties to rounding. Every run ends at a KKT point or in
        # DegenerateIterateError, never in a bare LinAlgError
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, 4))
        dup = a[:, 1] + (seed >= 10) * 10.0 ** rng.uniform(-16, -7) * rng.standard_normal(10)
        a = np.column_stack([a, dup])
        h, c = a.T @ a, rng.standard_normal(5)
        x0 = np.abs(rng.standard_normal(5)) * (rng.random(5) < 0.5)
        try:
            out = DenseGram(h, FieldTag.REAL_NONNEGATIVE).solve_nonnegative(c, x0)
        except DegenerateIterateError as exc:
            assert not isinstance(exc, np.linalg.LinAlgError)
        else:
            assert np.all(out >= 0)
            size = max(np.abs(c).max(), np.abs(h @ out).max())
            assert nonnegative_kkt_residual(h, c, out) <= 1e-12 * size

    def test_a_rounding_tie_stays_bound(self, monkeypatch):
        # coordinate 1's gradient -1e-10 frees it, and a solve that (as by
        # rounding) sends it back below zero leaves it bound: the result is
        # a KKT point within ACTIVE_SET_TIE
        solve = np.linalg.solve

        def rounded(h, rhs):
            out = solve(h, rhs)
            if out.size == 2:
                out[1] = -1e-18
            return out

        monkeypatch.setattr(np.linalg, "solve", rounded)
        h, c = np.eye(2), np.array([1.0, 1e-10])
        out = DenseGram(h, FieldTag.REAL_NONNEGATIVE).solve_nonnegative(c, np.array([1.0, 0.0]))
        assert np.array_equal(out, [1.0, 0.0])
        assert nonnegative_kkt_residual(h, c, out) <= ACTIVE_SET_TIE * np.abs(c).max()

    def test_singular_matrix_is_a_degenerate_status(self):
        q = DenseGram(np.zeros((2, 2)), FieldTag.REAL_NONNEGATIVE)
        with pytest.raises(DegenerateIterateError):
            q.solve_nonnegative(np.ones(2), np.ones(2))


class TestDftModelInput:
    @pytest.mark.parametrize("pad_width", [-1, -2, -4])
    def test_negative_pad_width_rejected(self, pad_width):
        with pytest.raises(ValueError, match="pad_width"):
            CanonicalDftModel((8, 8), np.ones((8, 8)), pad_width=pad_width)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reference_rejected(self, bad):
        ref = np.ones((4, 4))
        ref[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            CanonicalDftModel((4, 4), ref)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_masks_rejected(self, bad):
        masks = make_masks(3, 6, seed=0)
        masks[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            MaskedDftModel(masks)

    @pytest.mark.parametrize("fft_dims", [(16,), (16, 16, 2), (3, 16), (4, 7)])
    def test_malformed_fft_dims_rejected(self, fft_dims):
        # the concatenated image is 4 x (3 + 3 + 2)
        with pytest.raises(ValueError, match="fft_dims"):
            CanonicalDftModel((4, 3), np.ones((4, 2)), fft_dims=fft_dims)

    def test_zero_pad_width_accepted(self):
        model = CanonicalDftModel((4, 3), np.ones((4, 2)), pad_width=0)
        assert model.concat_dims == (4, 5)

    @pytest.mark.parametrize("imag", [1.0, 1e-300])
    def test_complex_masks_rejected(self, imag):
        # a float cast would keep the real part alone, with a warning
        masks = np.ones((2, 4)) + 0j
        masks[1, 2] += 1j * imag
        with pytest.raises(ValueError, match="masks must be real"):
            MaskedDftModel(masks)
        with pytest.raises(ValueError, match="masks must be real"):
            MaskedDftModel(np.ones((2, 4)) * (1 + 1j))

    @pytest.mark.parametrize("imag", [1.0, 1e-300])
    def test_complex_reference_rejected(self, imag):
        ref = np.ones((4, 2)) + 0j
        ref[3, 0] += 1j * imag
        with pytest.raises(ValueError, match="reference must be real"):
            CanonicalDftModel((4, 3), ref)

    def test_a_complex_dtype_with_zero_imaginary_parts_is_real(self):
        masks = make_masks(3, 6, seed=0)
        model = MaskedDftModel(masks + 0j)
        assert model.masks.dtype == float and np.array_equal(model.masks, masks)
        ref = np.ones((4, 2))
        model = CanonicalDftModel((4, 3), ref + 0j)
        assert model.reference.dtype == float and np.array_equal(model.reference, ref)


class TestCalibrateScale:
    def test_identity_two_ones(self):
        m = DenseModel(np.eye(2))
        c = calibrate_scale(m, np.array([1.0, 1.0]), 0.25)
        assert c == pytest.approx(0.5, abs=1e-15)
        assert np.mean(m.intensities(np.array([1.0, 1.0]))) == pytest.approx(0.25)

    def test_degenerate_zero_field(self):
        m = DenseModel(np.eye(2), background=0.25)
        assert calibrate_scale(m, np.zeros(2), 0.25) == 0.0
        with pytest.raises(ValueError):
            calibrate_scale(m, np.zeros(2), 0.5)

    def test_target_below_background_rejected(self):
        m = DenseModel(np.eye(2), background=0.5)
        with pytest.raises(ValueError):
            calibrate_scale(m, np.ones(2), 0.25)

    def test_target_at_background_rejected(self):
        # the mean of 48 backgrounds of 0.1 rounds just below 0.1; a target of
        # 0.1 would give a scale of about 1e-9, not an error
        m = random_gaussian_model(48, 8, seed=3, background=0.1)
        assert np.mean(m.background) < 0.1
        with pytest.raises(ValueError, match="at or below mean background"):
            calibrate_scale(m, np.ones(8), 0.1)
        assert m.scale == 1.0

    def test_exact_mean_intensity(self):
        m = random_gaussian_model(64, 8, seed=0, background=0.1)
        rng = np.random.default_rng(1)
        x = _rand_vec(rng, 8)
        calibrate_scale(m, x, 0.25)
        assert np.mean(m.intensities(x)) == pytest.approx(0.25, abs=1e-12)

    def test_simulated_mean_near_target(self):
        # mean 0.25 with b = 0.1 everywhere, Monte-Carlo 3 sigma
        m = random_gaussian_model(20000, 8, seed=2, background=0.1)
        rng = np.random.default_rng(3)
        x = _rand_vec(rng, 8)
        calibrate_scale(m, x, 0.25)
        meas = simulate_poisson(m, x, seed=4)
        sigma = np.sqrt(np.mean(m.intensities(x)) / m.rows)
        assert abs(meas.mean_count - 0.25) < 3.0 * sigma

    def test_canonical_includes_reference_in_calibration(self):
        m = CanonicalDftModel((2, 2), np.ones((2, 2)), background=0.1)
        x = np.array([0.3, 0.7, 0.1, 0.9])
        calibrate_scale(m, x, 0.25)
        assert np.mean(m.intensities(x)) == pytest.approx(0.25, abs=1e-12)


class TestSimulatePoisson:
    @pytest.mark.parametrize("case", ["nan-signal", "nan-scale"])
    def test_non_finite_means_raise_a_value_error(self, case):
        # a ValueError that names the means, also under `python -O`
        m = random_gaussian_model(20, 4, seed=1, background=0.1)
        x = np.ones(4)
        if case == "nan-signal":
            x[2] = np.nan
        else:
            m.scale = np.nan
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate_poisson(m, x, seed=0)

    def test_zero_mean_gives_zero_counts(self):
        m = DenseModel(np.eye(3))
        meas = simulate_poisson(m, np.zeros(3), seed=0)
        assert np.all(meas.y == 0)

    def test_seed_determinism(self):
        m = random_gaussian_model(50, 5, seed=0, background=0.1)
        x = np.ones(5)
        y1 = simulate_poisson(m, x, seed=42).y
        y2 = simulate_poisson(m, x, seed=42).y
        assert np.array_equal(y1, y2)

    def test_clt_sample_mean(self):
        # per-entry mean exactly 0.25 on 1e5 measurements
        n = 100_000
        m = DenseModel(np.zeros((n, 1)), background=0.25)
        meas = simulate_poisson(m, np.zeros(1), seed=7)
        assert abs(meas.mean_count - 0.25) < 4.0 * np.sqrt(0.25 / n)

    def test_measurement_set_validates(self):
        with pytest.raises(ValueError):
            MeasurementSet(np.array([-1.0, 2.0]), seed=0)
        ms = MeasurementSet(np.array([1.0, 3.0]), seed=0)
        assert ms.mean_count == 2.0


class TestMasks:
    def test_first_mask_all_ones(self):
        masks = make_masks(4, 10, seed=0)
        assert np.all(masks[0] == 1.0)

    def test_bernoulli_values_binary(self):
        masks = make_masks(5, 64, seed=1)
        assert set(np.unique(masks)) <= {0.0, 1.0}

    def test_exact_half(self):
        masks = make_masks(5, 10, seed=2, exact_half=True)
        for row in masks[1:]:
            assert int(np.sum(row)) == 5


class TestFileMatrix:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        path = tmp_path / "mat.csv"
        save_file_matrix(path, a)
        m = load_file_matrix(path)
        assert m.rows == 3 and m.cols == 2
        assert np.allclose(m.entries, a, atol=0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a header\n")
        with pytest.raises(ValueError, match="header"):
            load_file_matrix(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("2,1\n1:0\n")
        with pytest.raises(ValueError, match="ended early"):
            load_file_matrix(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1,2\n1:0\n")
        with pytest.raises(ValueError, match="entries"):
            load_file_matrix(path)


class TestPgm:
    def test_p2_ascii(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# comment\n2 2\n255\n0 128 255 64\n")
        img = load_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 0] == 0.0
        assert img[0, 1] == pytest.approx(128 / 255)
        assert img[1, 0] == 1.0

    def test_p5_binary(self, tmp_path):
        path = tmp_path / "img5.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([10, 200]))
        img = load_pgm(path)
        assert img.shape == (1, 2)
        assert np.allclose(img, [[10 / 255, 200 / 255]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "nope.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            load_pgm(path)

    @pytest.mark.parametrize("text, problem", [
        ("", "expected"), ("P2\n4", "expected"), ("P2\n4 4\n# 255\n", "expected"),
        ("P2\n4 4\n0\n0 0 0 0", "positive integers"),
        ("P2\n0 4\n255\n", "positive integers"),
        ("P2\n4 -4\n255\n0 0 0 0", "positive integers"),
        ("P2\n2.5 1\n255\n0 0", "positive integers"),
        ("P2\nfour 1\n255\n0 0 0 0", "positive integers"),
        ("P2\n1 1\n65536\n0", "65535"),
    ], ids=["empty", "short", "comment", "maxval-0", "width-0", "height-neg",
            "width-fraction", "width-word", "maxval-high"])
    def test_malformed_header(self, tmp_path, text, problem):
        # these ended in an IndexError, a ValueError from int() naming no
        # header, or, at maxval 0, a division by zero and non-finite pixels
        path = tmp_path / "bad.pgm"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"PGM header .*{problem}"):
            load_pgm(path)

    def test_sixteen_bit_p5_and_comments_between_tokens(self, tmp_path):
        path = tmp_path / "img16.pgm"
        path.write_bytes(b"P5 # magic\n2\n# width\n 1 # height\n65535\n"
                         + np.array([1, 65535], dtype=">u2").tobytes())
        np.testing.assert_array_equal(load_pgm(path), [[1 / 65535, 1.0]])
