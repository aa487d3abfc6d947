"""The half-spectrum data term of real-field DFT models: equal to the
full-row sums to rounding, and every row where it does not fold."""

from collections import Counter

import numpy as np
import pytest

from poisson_pr.admm import run_admm
from poisson_pr.baselines import run_lbfgs
from poisson_pr.mm import CurvatureKind, build_majorizer, run_mm
from poisson_pr.objectives import DiffOp, GaussianObjective, HuberTV, PoissonObjective
from poisson_pr.operators import (
    CanonicalDftModel,
    FieldTag,
    MaskedDftModel,
    SignalVector,
    calibrate_scale,
    in_field,
    make_masks,
    random_gaussian_model,
)
from poisson_pr.wf import StepKind, StepRule, TruncationRule, run_wf

# (image dims, fft_dims, pad_width) of the canonical cases: the default grid
# (4 x 8, both lengths even), odd lengths on both axes, one odd and one even
# each way, a padded grid and no zero block
CANONICAL = {
    "default": ((4, 3), None, None),
    "odd-odd": ((4, 3), (7, 13), None),
    "even-odd": ((4, 3), (8, 11), None),
    "odd-even": ((5, 3), (9, 12), None),
    "padded": ((4, 3), (10, 16), None),
    "no-pad": ((5, 4), (5, 6), 0),
    # wider than DIRECT_MAX_COLS, where MM's Gram is the `CirculantGram`
    "wide": ((9, 8), None, None),
    "wide-odd": ((9, 8), (11, 25), None),
}
CASES = ["masked", "masked-wide", *CANONICAL]


def model_of(case, background=0.1):
    if case.startswith("masked"):
        n = 72 if case == "masked-wide" else 12
        return MaskedDftModel(make_masks(4, n, seed=1), background=background)
    dims, fft_dims, pad = CANONICAL[case]
    ref = np.random.default_rng(2).uniform(0.0, 1.0, (dims[0], 2))
    return CanonicalDftModel(dims, ref, pad_width=pad, fft_dims=fft_dims,
                             background=background)


def canonical_on(fft_dims):
    """The default canonical case's model on the grid `fft_dims`."""
    ref = np.random.default_rng(2).uniform(0.0, 1.0, (4, 2))
    return CanonicalDftModel((4, 3), ref, fft_dims=fft_dims, background=0.1)


def instance(case, field=FieldTag.REAL_NONNEGATIVE, background="uniform", seed=0):
    """(objective, x in the field's dtype) at a low mean count: the
    background 0.1, a non-uniform one equal on the rows of each pair
    ("mirrored"), or one drawn per row ("asymmetric")."""
    rng = np.random.default_rng(seed)
    model = model_of(case)
    if background == "mirrored":
        half = model.half
        model.background = rng.uniform(0.05, 0.3, half.c.size)[half.pair]
    elif background == "asymmetric":
        model.background = rng.uniform(0.05, 0.3, model.rows)
    x = np.abs(rng.standard_normal(model.cols))
    calibrate_scale(model, x, 0.5)
    y = rng.poisson(model.intensities(x)).astype(float)
    x0 = np.abs(x + 0.3 * rng.standard_normal(model.cols))
    return PoissonObjective(model, y, field=field), in_field(x0, field)


def relative(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


def mirrors(model):
    """The rows outside the model's half rows, each its half row's mirror."""
    mirror = np.ones(model.rows, bool)
    mirror[model.half.rows] = False
    return mirror


def count_half(model) -> Counter:
    """Count the model's products, a half-spectrum one under "half"."""
    counts = Counter()
    for name in ("apply", "apply_linear", "adjoint"):
        def counted(*args, _fn=getattr(model, name), **kwargs):
            counts["half" if kwargs.get("half") else "full"] += 1
            return _fn(*args, **kwargs)
        setattr(model, name, counted)
    return counts


class TestHalfSpectrum:
    @pytest.mark.parametrize("case", CASES)
    def test_every_row_pairs_with_a_half_row_or_its_conjugate(self, case):
        model = model_of(case)
        half = model.half
        x = np.abs(np.random.default_rng(3).standard_normal(model.cols))
        full, part = model.apply(x), model.apply(x, half=True)
        assert np.allclose(part, full[half.rows], rtol=0, atol=1e-12)
        mate = part[half.pair]
        assert np.all(np.isclose(full, mate, atol=1e-12)
                      | np.isclose(full, mate.conj(), atol=1e-12))
        assert np.array_equal(half.c, np.bincount(half.pair))
        assert set(np.unique(half.c)) == {1.0, 2.0}
        # the number of rows is the half's weighted count
        assert half.c.sum() == model.rows

    def test_canonical_halves_axis_0(self):
        model = model_of("default")
        p, q = model.fft_dims
        assert model.half.c.size == (p // 2 + 1) * q
        c = model.half.c.reshape(p // 2 + 1, q)
        # rows 0 and P/2 mirror within themselves
        assert np.all(c[[0, -1]] == 1.0) and np.all(c[1:-1] == 2.0)

    @pytest.mark.parametrize("case", CASES)
    def test_half_adjoint_is_the_real_adjoint_of_the_hermitian_extension(self, case):
        model = model_of(case)
        half = model.half
        rng = np.random.default_rng(4)
        v = rng.standard_normal(half.c.size) + 1j * rng.standard_normal(half.c.size)
        ext = v[half.pair].copy()
        mirror = mirrors(model)
        ext[mirror] = ext[mirror].conj()
        got = model.adjoint(v, half=True)
        assert got.dtype == float
        assert relative(got, model.adjoint(ext).real) <= 1e-13

    @pytest.mark.parametrize("case", CASES)
    def test_extend_gives_every_row_of_the_product(self, case):
        model = model_of(case)
        half = model.half
        x = np.abs(np.random.default_rng(6).standard_normal(model.cols))
        full = model.apply(x)
        assert relative(half.extend(model.apply(x, half=True)), full) <= 1e-13
        # exactly the half row's value, conjugated on the mirror rows, for
        # any h, Hermitian or not (rows 0 and P/2 of the canonical grid
        # and frequency 0 of each mask are half rows, kept as they are)
        rng = np.random.default_rng(7)
        h = rng.standard_normal(half.c.size) + 1j * rng.standard_normal(half.c.size)
        ext, mirror = half.extend(h), mirrors(model)
        assert ext.shape == (model.rows,)
        assert ext[half.rows].tobytes() == h.tobytes()
        assert ext[mirror].tobytes() == h[half.pair[mirror]].conj().tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_fold_gives_the_real_adjoint(self, case):
        model = model_of(case)
        half = model.half
        rng = np.random.default_rng(8)
        u = rng.standard_normal(model.rows) + 1j * rng.standard_normal(model.rows)
        folded = half.fold(u)
        # the sum over each half row's rows, a mirror row's conjugated
        w, mirror = u.copy(), mirrors(model)
        w[mirror] = w[mirror].conj()
        ref = np.empty(half.c.size, complex)
        ref.real = np.bincount(half.pair, weights=w.real)
        ref.imag = np.bincount(half.pair, weights=w.imag)
        assert folded.tobytes() == ref.tobytes()
        assert relative(model.adjoint(folded / half.c, half=True),
                        model.adjoint(u).real) <= 1e-13

    @pytest.mark.parametrize("fft_dims", [None, (33, 97)], ids=["default", "33x97"])
    def test_canonical_self_mirrored_rows_fold_and_extend_alone(self, fft_dims):
        model = canonical_on(fft_dims)
        half, (p, q) = model.half, model.fft_dims
        lone = [0, p // 2] if p % 2 == 0 else [0]
        rng = np.random.default_rng(9)
        u = rng.standard_normal(model.rows) + 1j * rng.standard_normal(model.rows)
        folded = half.fold(u).reshape(-1, q)
        assert folded[lone].tobytes() == u.reshape(p, q)[lone].tobytes()
        assert np.all(half.c.reshape(-1, q)[lone] == 1.0)
        extended = half.extend(folded.ravel()).reshape(p, q)
        assert extended[lone].tobytes() == folded[lone].tobytes()

    @pytest.mark.parametrize("case", ["masked", "default", "33x97"])
    def test_fold_of_the_counts_is_their_bincount(self, case):
        model = canonical_on((33, 97)) if case == "33x97" else model_of(case)
        half = model.half
        rng = np.random.default_rng(10)
        for y in (rng.poisson(0.5, model.rows).astype(float),
                  rng.uniform(0.0, 1e3, model.rows)):
            folded = half.fold(y)
            assert folded.dtype == float
            ref = np.bincount(half.pair, weights=y, minlength=half.c.size)
            assert folded.tobytes() == ref.tobytes()

    def test_a_model_without_a_half_spectrum_refuses_a_half_product(self):
        model = random_gaussian_model(8, 3)
        with pytest.raises(ValueError, match="no half spectrum"):
            model.apply(np.ones(3), half=True)
        with pytest.raises(ValueError, match="no half spectrum"):
            model.adjoint(np.ones(8), half=True)


class TestFoldedDataTerm:
    """Cost, gradient, Fisher denominator and MM Gram over the half spectrum
    equal the full-row ones within 1e-13 relative."""

    @pytest.mark.parametrize("background", ["uniform", "mirrored"])
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.REAL_NONNEGATIVE])
    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_full_rows(self, case, field, background):
        obj, x = instance(case, field, background)
        full = obj.full_rows()
        assert obj.half is obj.model.half and full.half is None
        assert obj.positive.size <= full.positive.size
        assert abs(obj.cost(x) - full.cost(x)) <= 1e-13 * abs(full.cost(x))
        g = obj.gradient(x)
        assert g.dtype == float
        assert relative(g, full.gradient(x)) <= 1e-13
        # the Fisher step's denominator d' D1 d along the gradient
        denom = [float(np.sum(o.fisher_diag(o.forward(x)) * np.abs(o.forward_linear(g)) ** 2))
                 for o in (obj, full)]
        assert abs(denom[0] - denom[1]) <= 1e-13 * denom[1]
        z = np.random.default_rng(5).standard_normal(obj.model.cols)
        for kind in CurvatureKind:
            ctx, ref = build_majorizer(obj, x, kind), build_majorizer(full, x, kind)
            assert relative(ctx.grad, ref.grad) <= 1e-13
            # the pair-mean weights give the same Re(A'WA)
            assert relative(ctx.quad_op @ z, ref.quad_op @ z) <= 1e-13

    @pytest.mark.parametrize("case", ["masked-wide", "wide", "wide-odd"])
    @pytest.mark.parametrize("solver", ["wf", "wf-tv", "wf-backtracking", "mm", "mm-tv",
                                        "lbfgs"])
    def test_runs_equal_the_full_rows(self, case, solver):
        obj, x0 = instance(case, FieldTag.REAL_NONNEGATIVE, "mirrored")
        dims = None if case.startswith("masked") else obj.model.image_dims
        tv = HuberTV(0.5, 0.1, DiffOp(obj.model.cols, dims=dims))
        x0_sig = SignalVector(x0, field=obj.field)
        run = {
            "wf": lambda o: run_wf(o, x0_sig, 30),
            "wf-tv": lambda o: run_wf(o, x0_sig, 30, reg=tv),
            "wf-backtracking": lambda o: run_wf(o, x0_sig, 30,
                                                rule=StepRule(StepKind.BACKTRACKING)),
            "mm": lambda o: run_mm(o, x0_sig, 10),
            "mm-tv": lambda o: run_mm(o, x0_sig, 5, reg=tv),
            "lbfgs": lambda o: run_lbfgs(o, x0_sig, 20),
        }[solver]
        counts = count_half(obj.model)
        state = run(obj)
        assert counts["full"] == 0 and counts["half"] > 0
        ref = run(obj.full_rows())
        assert state.status == ref.status == "ok" and len(state.trace) == len(ref.trace)
        costs, ref_costs = state.costs(), ref.costs()
        assert np.all(np.abs(costs - ref_costs) <= 1e-12 * np.abs(ref_costs))
        assert relative(state.x, ref.x) <= 1e-12
        assert np.all(state.x.imag == 0)
        if solver != "lbfgs":  # LBFGS does not project onto the orthant
            assert np.all(state.x.real >= 0)


class Unfolded(PoissonObjective):
    """A Poisson objective over every row on every field."""

    def _half_spectrum(self):
        return None


class TestEveryRow:
    """Where the data term does not fold, the objective takes every row: the
    same trace, bit for bit, as an objective over every row, and no
    half-spectrum product. ADMM's split keeps every row where it folds, and
    its products are half ones."""

    def _same_run(self, obj, reference, run):
        counts = count_half(obj.model)
        state = run(obj)
        assert counts["half"] == 0 and counts["full"] > 0
        ref = run(reference)
        assert state.costs().tobytes() == ref.costs().tobytes()
        assert state.x.tobytes() == ref.x.tobytes()

    @pytest.mark.parametrize("case", ["masked", "default"])
    def test_an_asymmetric_background(self, case):
        obj, x0 = instance(case, background="asymmetric")
        assert obj.half is None and obj.c == 1.0
        assert obj.full_rows() is obj
        x0 = SignalVector(x0, field=obj.field)
        self._same_run(obj, Unfolded(obj.model, obj.y, obj.field),
                       lambda o: run_wf(o, x0, 20))

    @pytest.mark.parametrize("case", ["masked", "default"])
    def test_a_complex_field(self, case):
        obj, x0 = instance(case, FieldTag.COMPLEX)
        assert obj.half is None
        x0 = SignalVector(x0, field=FieldTag.COMPLEX)
        self._same_run(obj, Unfolded(obj.model, obj.y, obj.field),
                       lambda o: run_mm(o, x0, 10))

    @pytest.mark.parametrize("case", ["masked", "default"])
    def test_wf_with_a_truncation_mask(self, case):
        obj, x0 = instance(case)
        assert obj.half is not None
        x0 = SignalVector(x0, field=obj.field)
        self._same_run(obj, Unfolded(obj.model, obj.y, obj.field),
                       lambda o: run_wf(o, x0, 20, trunc=TruncationRule(5.0)))

    @pytest.mark.parametrize("case", ["masked", "default"])
    def test_a_gaussian_cost(self, case):
        obj, x0 = instance(case)
        gauss = GaussianObjective(obj.model, obj.y, field=obj.field)
        assert gauss.half is None and obj.half is not None
        x0 = SignalVector(x0, field=obj.field)
        counts = count_half(obj.model)
        state = run_wf(gauss, x0, 20, rule=StepRule(StepKind.EXACT_GAUSSIAN))
        assert state.status == "ok" and counts["half"] == 0
        # the Gaussian cost of the rows, every one
        r = gauss.y - gauss.b - np.abs(obj.model.apply(state.x)) ** 2
        assert abs(state.costs()[-1] - np.sum(r * r)) <= 1e-12 * np.sum(r * r)

    def test_admm_takes_every_row_and_reports_the_folded_cost(self):
        # the split keeps every row, whose products are the extension and
        # the fold of half ones: the iterates equal the every-row run's to
        # rounding (2.8e-16 relative on the masked DFT, 1.5e-16 on the
        # canonical one), the costs by the fold's rounding too
        for case in ("masked", "default"):
            obj, x0 = instance(case)
            assert obj.half is not None
            x0 = SignalVector(x0, field=obj.field)
            counts = count_half(obj.model)
            state = run_admm(obj, x0, 10)
            assert state.status == "ok" and counts["full"] == 0 and counts["half"] > 0
            ref = run_admm(Unfolded(obj.model, obj.y, obj.field), x0, 10)
            assert relative(state.x, ref.x) <= 1e-14
            assert np.all(np.abs(state.costs() - ref.costs())
                          <= 1e-13 * np.abs(ref.costs()))
