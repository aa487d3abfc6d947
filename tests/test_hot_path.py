"""Operator calls per iteration on the dense and FFT hot paths, and the
forward and densify memos."""

from collections import Counter

import numpy as np
import pytest

from oracles import fft_instance, power_initialize, random_unit_start
from poisson_pr import init_eval, operators, wf
from poisson_pr.admm import run_admm
from poisson_pr.baselines import run_lbfgs
from poisson_pr.init_eval import finalize_init, initialize, scale_fit
from poisson_pr.mm import run_mm
from poisson_pr.objectives import DiffOp, GaussianObjective, HuberTV, PoissonObjective
from poisson_pr.operators import (
    DIRECT_MAX_COLS,
    DenseModel,
    FieldTag,
    ForwardModel,
    MaskedDftModel,
    calibrate_scale,
    make_masks,
    random_gaussian_model,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks, random_complex
from poisson_pr.wf import StepKind, StepRule, run_wf

N, M, ITERS = 16, 128, 20


def instance(field=FieldTag.REAL_NONNEGATIVE, noise_model=PoissonObjective):
    """(objective, x0) of a small dense instance: the blocks phantom on a real
    field, a random complex signal on the complex one."""
    sig = random_complex(N, seed=0) if field is FieldTag.COMPLEX else blocks(N, seed=0)
    model = random_gaussian_model(M, N, seed=5, background=0.1)
    calibrate_scale(model, sig.values, 0.25)
    y = simulate_poisson(model, sig.values, 6).y
    x0 = initialize(model, y, field=field, iters=50, seed=0)
    return noise_model(model, y, field=field), x0


def count_calls(model) -> Counter:
    """Shadow the model's operator methods with counting instance attributes,
    which pass keyword arguments on; a product over the half spectrum
    (`half=True`) counts under its name with " half" appended, apart from
    the full-row ones."""
    counts = Counter()
    for name in ("apply", "apply_linear", "adjoint", "densify"):
        def counted(*args, _fn=getattr(model, name), _name=name, **kwargs):
            counts[_name + " half" if kwargs.get("half") else _name] += 1
            return _fn(*args, **kwargs)
        setattr(model, name, counted)
    return counts


def count_gram_products(monkeypatch) -> Counter:
    """Count the products of every Gram form the initializer builds."""
    counts = Counter()
    quad_form = init_eval.quad_form

    class Counted:
        def __init__(self, q):
            self.q = q

        def __matmul__(self, z):
            counts["gram"] += 1
            return self.q @ z
    monkeypatch.setattr(init_eval, "quad_form", lambda *args: Counted(quad_form(*args)))
    return counts


def count_moved(monkeypatch) -> list:
    """Record, per WF projection, whether it moved its point."""
    moved = []
    project = wf.project_field

    def counted(x, field):
        out = project(x, field)
        moved.append(not np.array_equal(out, x))
        return out
    monkeypatch.setattr(wf, "project_field", counted)
    return moved


@pytest.mark.parametrize("huber", [False, True])
def test_wf_fisher_one_product_of_each_kind_per_iteration(huber, monkeypatch):
    obj, x0 = instance()
    reg = HuberTV(2.0, 0.1, DiffOp(N)) if huber else None
    counts = count_calls(obj.model)
    moved = count_moved(monkeypatch)
    state = run_wf(obj, x0, ITERS, reg=reg)
    assert state.status == "ok" and len(state.trace) == ITERS
    assert not state.warnings  # no halved step, which projects once more
    assert len(moved) == ITERS and any(moved)
    # the forward product at the start, then one apply per iterate the orthant
    # clamp moved and whose Fisher step runs (not the last one: its cost comes
    # from A_P); an unclamped iterate's product is A x - mu A grad
    assert counts["apply"] == 1 + sum(moved[:-1])
    assert counts["apply_linear"] == ITERS
    # the Poisson gradient comes from A'A and the positive-count rows A_P
    assert counts["adjoint"] == 0


@pytest.mark.parametrize("field", [FieldTag.COMPLEX, FieldTag.REAL])
@pytest.mark.parametrize("kind, noise_model", [
    (StepKind.FISHER, PoissonObjective), (StepKind.EXACT_GAUSSIAN, GaussianObjective),
], ids=["fisher", "exact_gaussian"])
def test_wf_unclamped_applies_only_at_the_start(field, kind, noise_model, monkeypatch):
    # the complex and real fields, where WF's projection never moves a point
    obj, x0 = instance(field, noise_model)
    counts = count_calls(obj.model)
    moved = count_moved(monkeypatch)
    state = run_wf(obj, x0, ITERS, rule=StepRule(kind))
    assert state.status == "ok" and len(state.trace) == ITERS
    assert not any(moved)
    # the starting forward product only: each new iterate's is A x - mu A grad
    assert counts["apply"] == 1
    assert counts["apply_linear"] == ITERS
    # the Poisson gradient from A'A and A_P; the Gaussian one from A'
    assert counts["adjoint"] == (0 if noise_model is PoissonObjective else ITERS)


@pytest.mark.parametrize("huber", [False, True])
def test_wf_fisher_costs_each_iterate_once(huber):
    obj, x0 = instance()
    reg = HuberTV(2.0, 0.1, DiffOp(N)) if huber else None
    counts = Counter()
    cost = obj.cost

    def counted_cost(x):
        counts["cost"] += 1
        return cost(x)
    obj.cost = counted_cost
    state = run_wf(obj, x0, ITERS, reg=reg)
    assert state.status == "ok" and len(state.trace) == ITERS
    # the start point once, then each new iterate once: the overshoot guard
    # reuses the costs the trace records
    assert counts["cost"] <= ITERS + 1


@pytest.mark.parametrize("huber, field", [
    (False, None), (True, None), (False, FieldTag.COMPLEX), (True, FieldTag.COMPLEX),
], ids=["False", "True", "complex", "complex-huber"])
def test_wf_backtracking_costs_each_iterate_once(huber, field):
    # on the complex field the projection leaves every trial unchanged
    obj, x0 = instance()
    if field is not None:
        obj = PoissonObjective(obj.model, obj.y, field=field)
    reg = HuberTV(2.0, 0.1, DiffOp(N)) if huber else None
    costed = []
    cost = obj.cost

    def counted_cost(x):
        costed.append(x.tobytes())
        return cost(x)
    obj.cost = counted_cost
    state = run_wf(obj, x0, ITERS, rule=StepRule(StepKind.BACKTRACKING), reg=reg)
    assert state.status == "ok" and len(state.trace) == ITERS
    # the Armijo test's f(x) is the cost the trace recorded for x, and the
    # accepted trial, where the projection leaves it unchanged, is the next
    # iterate: no point is costed twice, compared by value
    assert len(costed) > ITERS + 1
    assert len(set(costed)) == len(costed)


def test_wf_backtracking_makes_no_full_product():
    obj, x0 = instance()
    counts = count_calls(obj.model)
    state = run_wf(obj, x0, ITERS, rule=StepRule(StepKind.BACKTRACKING))
    assert state.status == "ok" and len(state.trace) == ITERS
    # every trial's cost and every gradient come from A'A and A_P
    assert counts["apply"] == counts["apply_linear"] == counts["adjoint"] == 0


def test_mm_huber_inner_solver_makes_no_operator_call():
    obj, x0 = instance()
    counts = count_calls(obj.model)
    state = run_mm(obj, x0, ITERS, reg=HuberTV(2.0, 0.1, DiffOp(N)))
    assert state.status == "ok" and len(state.trace) == ITERS
    # one Gram per outer iteration, and A_P taken once; the inner loop
    # multiplies by the Gram alone
    assert counts["densify"] == ITERS + 1
    # the majorizer's curvatures, its gradient and each new iterate's cost
    # come from A'A and A_P
    assert counts["apply"] == counts["apply_linear"] == counts["adjoint"] == 0


def test_mm_densifies_once_per_outer_iteration():
    obj, x0 = instance()
    counts = count_calls(obj.model)
    state = run_mm(obj, x0, ITERS)
    assert len(state.trace) == ITERS
    # one Gram per outer iteration, and A_P taken once
    assert counts["densify"] == ITERS + 1
    # curvatures, gradient and cost from A'A and A_P; the clamp guard's
    # curvature p'Qp comes from the Gram, not from A p
    assert counts["apply"] == counts["apply_linear"] == counts["adjoint"] == 0


@pytest.mark.parametrize("huber", [False, True])
def test_dense_admm_makes_no_operator_call(huber):
    obj, x0 = instance()
    counts = count_calls(obj.model)
    state = run_admm(obj, x0, ITERS, reg=HuberTV(2.0, 0.1, DiffOp(N)) if huber else None)
    assert state.status == "ok" and len(state.trace) == ITERS
    # A_P, A'A and the zero-count Gram from one densified A; the split keeps
    # the positive-count rows, whose products A_P x are the trace cost's too,
    # and the zero-count rows' terms are products with their Gram
    assert counts["densify"] == 1
    assert counts["apply"] == counts["apply_linear"] == counts["adjoint"] == 0


def test_unregularized_admm_checks_the_gram_rank_once(monkeypatch):
    obj, x0 = instance()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(1) or eigvalsh(h))
    state = run_admm(obj, x0, ITERS)
    assert state.status == "ok" and len(state.trace) == ITERS
    # the x-update solves A'A itself, not a copy rescaled by the penalty
    assert len(calls) == 1


@pytest.mark.parametrize("reg", [False, True])
def test_mm_checks_the_gram_rank_once_per_model(monkeypatch, reg):
    obj, x0 = instance()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(1) or eigvalsh(h))
    state = run_mm(obj, x0, ITERS, reg=HuberTV(2.0, 0.1, DiffOp(N)) if reg else None)
    assert state.status == "ok" and len(state.trace) == ITERS
    # A'A's extreme eigenvalues, taken at the first solve, prove every
    # majorizer's Gram well conditioned; the Huber solve never solves a Gram
    assert len(calls) == (0 if reg else 1)
    # ADMM's A'A shares them
    state = run_admm(obj, x0, ITERS)
    assert state.status == "ok" and len(calls) == 1


def test_lbfgs_makes_no_full_product_per_evaluation():
    obj, x0 = instance()
    counts = count_calls(obj.model)
    gradient = obj.gradient

    def counted_gradient(x, keep=None):
        counts["gradient"] += 1
        return gradient(x, keep)
    obj.gradient = counted_gradient
    state = run_lbfgs(obj, x0, ITERS)
    assert state.trace and counts["gradient"] > ITERS
    # each cost and gradient from A'A and one A_P x
    assert counts["apply"] == counts["apply_linear"] == counts["adjoint"] == 0


@pytest.mark.parametrize("huber", [False, True])
def test_lbfgs_holds_once_its_cost_cannot_fall(huber):
    # the cost settles by iteration 25-29, and holding from there takes 58
    # gradients in all (70 with Huber-TV); searching on took about 4 per
    # iteration and raised the cost where a trial it had to take rose
    obj, x0 = instance()
    reg = HuberTV(2.0, 0.1, DiffOp(N)) if huber else None
    calls = []
    gradient = obj.gradient
    obj.gradient = lambda x, keep=None: calls.append(1) or gradient(x, keep)
    state = run_lbfgs(obj, x0, 200, reg=reg)
    assert state.status == "ok" and len(state.trace) == 200
    costs = state.costs()
    assert np.all(np.diff(costs) <= 0.0)
    assert len(calls) < 100
    # one warning, at the first held iterate, whose cost the later rows repeat
    assert len(state.warnings) == 1
    k = int(state.warnings[0].split()[1].rstrip(":"))
    assert state.warnings[0] == f"iter {k}: LBFGS search found no lower cost; iterate held"
    assert costs[k - 2] == costs[-1] and costs[k - 3] > costs[k - 2]


@pytest.mark.parametrize("cols, steps", [(N, N), (DIRECT_MAX_COLS, 30),
                                         (DIRECT_MAX_COLS + 8, 30)])
def test_initialize_lanczos_on_the_gram_up_to_the_direct_width(cols, steps, monkeypatch):
    model = random_gaussian_model(4 * cols, cols, seed=7, background=0.1)
    y = simulate_poisson(model, np.ones(cols), 8).y
    counts = count_calls(model)
    products = count_gram_products(monkeypatch)
    initialize(model, y, iters=30, seed=0)
    # Lanczos takes `steps` products, the cap's 30 where it has not converged
    # (at N columns the Krylov space is whole by step N), and its second pass
    # `steps` - 1 more for the Ritz vector
    assert products["gram"] == 2 * steps - 1
    # scale_fit's one forward product
    assert counts["apply"] == 1
    if cols <= DIRECT_MAX_COLS:
        assert counts["densify"] == 1
        assert counts["apply_linear"] == counts["adjoint"] == 0
    else:
        assert counts["densify"] == 0
        assert counts["apply_linear"] == counts["adjoint"] == 2 * steps - 1


@pytest.mark.parametrize("kind, steps", [("masked", 20), ("canonical", 28)])
def test_initialize_lanczos_on_the_circulant_gram(kind, steps, monkeypatch):
    obj, _ = fft_instance(kind)
    counts = count_calls(obj.model)
    products = count_gram_products(monkeypatch)
    initialize(obj.model, obj.y, field=obj.field, iters=30, seed=0)
    # scale_fit's one forward product; Lanczos converges below the cap of 30,
    # at its test after `steps` steps, and its 2 steps - 1 Gram products call
    # no operator
    assert products["gram"] == 2 * steps - 1
    assert counts["apply"] == 1
    assert counts["apply_linear"] == counts["adjoint"] == counts["densify"] == 0


def test_initialize_stops_once_the_ritz_residual_is_at_rounding(monkeypatch):
    obj, _ = fft_instance("masked")
    products = count_gram_products(monkeypatch)
    x0 = initialize(obj.model, obj.y, field=obj.field, iters=300, seed=0)
    # the masked DFT's spectral gap (lambda_2 / lambda_1 = 0.61) brings the
    # Ritz residual to rounding by the test at step 20
    assert products["gram"] == 2 * 20 - 1
    # the power iterate settles there too, to the same vector and phase
    ref = power_initialize(obj.model, obj.y, obj.field, 300, seed=0)
    assert np.linalg.norm(x0.values - ref) <= 1e-12 * np.linalg.norm(ref)


def test_initialize_stops_where_the_power_iterate_never_settles(monkeypatch):
    # lambda_2 / lambda_1 = 0.976: 300 power iterations leave a residual
    # that Lanczos passes at step 44
    model = random_gaussian_model(4 * DIRECT_MAX_COLS, DIRECT_MAX_COLS, seed=7,
                                  background=0.1)
    y = simulate_poisson(model, np.ones(DIRECT_MAX_COLS), 8).y
    products = count_gram_products(monkeypatch)
    x0 = initialize(model, y, iters=300, seed=0)
    assert products["gram"] == 2 * 44 - 1
    h = operators.gram(model, y / (y + 1.0), FieldTag.COMPLEX)
    _, u = np.linalg.eigh(h)
    start = random_unit_start(DIRECT_MAX_COLS, 0)
    u = u[:, -1] * np.exp(1j * np.angle(np.vdot(u[:, -1], start)))
    ref = finalize_init(u, scale_fit(model, y, u)[0], FieldTag.COMPLEX)
    assert np.linalg.norm(x0.values - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", ["masked", "canonical"])
def test_unregularized_mm_cg_makes_no_operator_call(kind, monkeypatch):
    obj, x0 = fft_instance(kind)
    counts = count_calls(obj.model)
    inside = Counter()
    cg_solve = operators.cg_solve

    def counted_cg(*args, **kwargs):
        before = sum(counts.values())
        out = cg_solve(*args, **kwargs)
        inside["calls"] += sum(counts.values()) - before
        inside["solves"] += 1
        return out
    monkeypatch.setattr(operators, "cg_solve", counted_cg)
    products = Counter()
    matmul = operators.CirculantGram.__matmul__

    def counted_matmul(self, z):
        products["gram"] += 1
        return matmul(self, z)
    monkeypatch.setattr(operators.CirculantGram, "__matmul__", counted_matmul)
    state = run_mm(obj, x0, ITERS)
    assert state.status == "ok" and len(state.trace) == ITERS
    assert inside["solves"] == ITERS and inside["calls"] == 0
    # CG stops at mm.STEP_TOL: 117 Gram products on the masked DFT and 100 on
    # the canonical one, the clamp guard's included; 240 and 201 at INNER_TOL
    assert products["gram"] < 7 * ITERS
    # build_majorizer's forward product (remembered from the last cost) and
    # gradient adjoint, both over the half spectrum of the real field; the
    # clamp guard multiplies by the Gram
    assert counts["apply half"] <= ITERS + 1
    assert counts["adjoint half"] == ITERS
    assert counts["apply"] == counts["adjoint"] == 0
    assert counts["apply_linear"] == counts["apply_linear half"] == 0
    assert counts["densify"] == 0


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.REAL_NONNEGATIVE])
@pytest.mark.parametrize("kind", ["masked", "canonical"])
def test_folded_wf_fisher_makes_only_half_products(kind, field, monkeypatch):
    obj, x0 = fft_instance(kind, field)
    assert obj.half is obj.model.half
    reg = HuberTV(2.0, 0.1, DiffOp(obj.model.cols, dims=getattr(obj.model, "image_dims",
                                                                   None)))
    counts = count_calls(obj.model)
    moved = count_moved(monkeypatch)
    state = run_wf(obj, x0, ITERS, reg=reg)
    assert state.status == "ok" and len(state.trace) == ITERS
    assert not state.warnings
    assert counts["apply"] == counts["apply_linear"] == counts["adjoint"] == 0
    # the start's half product, then one per iterate the orthant clamp moved,
    # whose cost reads it; an unclamped iterate's is A x - mu A grad
    assert counts["apply half"] == 1 + sum(moved)
    assert counts["apply_linear half"] == counts["adjoint half"] == ITERS
    if field is FieldTag.REAL:
        assert not any(moved) and counts["apply half"] == 1


@pytest.mark.parametrize("kind", ["masked", "canonical"])
def test_dft_admm_takes_every_row(kind):
    obj, x0 = fft_instance(kind)
    assert obj.half is not None
    counts = count_calls(obj.model)
    state = run_admm(obj, x0, ITERS)
    assert state.status == "ok" and len(state.trace) == ITERS
    # the split keeps every row, each row's A x the extension of the half
    # product, which the trace cost reads too: the start's and one per
    # iterate; one half adjoint of the folded residual per x-update; no
    # full-row product
    assert counts["apply half"] == ITERS + 1 and counts["adjoint half"] == ITERS
    assert counts["apply"] == counts["adjoint"] == 0
    assert counts["apply_linear"] == counts["apply_linear half"] == 0


def test_masked_dft_admm_makes_one_apply_and_one_adjoint_per_iteration():
    obj, x0 = fft_instance("masked")
    counts = count_calls(obj.model)
    state = run_admm(obj, x0, ITERS)
    assert state.status == "ok" and len(state.trace) == ITERS
    # the start's half forward product and one per iterate, which the trace
    # cost reads too; one half adjoint per x-update, and none for a
    # residual, since the penalty is fixed; A'A is diagonal
    assert counts["apply half"] == ITERS + 1
    assert counts["adjoint half"] == ITERS
    assert counts["apply"] == counts["adjoint"] == 0
    assert counts["apply_linear"] == counts["densify"] == 0


@pytest.mark.parametrize("kind", ["masked", "canonical"])
def test_complex_dft_admm_makes_one_full_apply_and_adjoint_per_iteration(kind):
    obj, x0 = fft_instance(kind, FieldTag.COMPLEX)
    assert obj.half is None
    counts = count_calls(obj.model)
    state = run_admm(obj, x0, ITERS)
    assert state.status == "ok" and len(state.trace) == ITERS
    # a complex field does not fold: the same products over every row
    assert counts["apply"] == ITERS + 1 and counts["adjoint"] == ITERS
    assert counts["apply half"] == counts["adjoint half"] == 0
    assert counts["apply_linear"] == counts["densify"] == 0


def test_narrow_dft_mm_densifies_once_per_run():
    # at most DIRECT_MAX_COLS columns, the initializer's Gram and each MM
    # Gram are `gram`'s, from the densified A, which the model remembers:
    # densifying it again on every outer iteration took N `apply_linear`
    # products each time, 120 over these 10 iterations
    model = MaskedDftModel(make_masks(4, 12, seed=1), background=0.1)
    sig = blocks(12, seed=0)
    calibrate_scale(model, sig.values, 0.25)
    obj = PoissonObjective(model, simulate_poisson(model, sig.values, 2).y, field=sig.field)
    counts = count_calls(model)
    x0 = initialize(model, obj.y, field=sig.field, iters=50, seed=0)
    state = run_mm(obj, x0, 10)
    assert state.status == "ok" and len(state.trace) == 10
    assert counts["densify"] == 1 + 10
    assert counts["apply_linear"] == model.cols


class TestForwardMemo:
    def test_fresh_after_in_place_change_of_x(self):
        obj, x0 = instance()
        x = x0.values.copy()
        first = obj.forward(x).copy()
        x[0] += 1.0
        again = obj.forward(x)
        assert np.array_equal(again, obj.model.apply(x))
        assert not np.array_equal(again, first)
        assert obj.cost(x) == PoissonObjective(obj.model, obj.y, obj.field).cost(x)

    def test_fresh_after_scale_change(self):
        obj, x0 = instance()
        first = obj.forward(x0.values).copy()
        obj.model.scale *= 2.0
        again = obj.forward(x0.values)
        assert np.array_equal(again, obj.model.apply(x0.values))
        assert np.array_equal(again, 2.0 * first)

    def test_cached_array_is_read_only(self):
        obj, x0 = instance()
        ax = obj.forward(x0.values)
        assert obj.forward(x0.values.copy()) is ax
        assert not ax.flags.writeable
        with pytest.raises(ValueError):
            ax[0] = 0.0


class TestDensifyMemo:
    def test_read_only_and_reused(self):
        model = DenseModel(random_gaussian_model(40, 7, seed=1).entries, scale=0.6)
        a = model.densify()
        assert model.densify() is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
        assert a.tobytes() == (model.scale * model.entries).tobytes()

    def test_rebuilt_after_calibrate_scale(self):
        model = random_gaussian_model(40, 7, seed=2)
        before = model.densify()
        calibrate_scale(model, np.ones(7), 3.0)
        assert model.scale != 1.0
        assert model.densify().tobytes() == (model.scale * model.entries).tobytes()
        assert not np.array_equal(model.densify(), before)

    def test_rebuilt_after_entries_are_reassigned(self):
        model = random_gaussian_model(40, 7, seed=3)
        before = model.densify()
        model.entries = 2.0 * model.entries
        assert np.array_equal(model.densify(), 2.0 * before)


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 64)])
def test_dense_fast_paths_match_the_generic_ones_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    model = DenseModel(a, scale=0.37)
    assert model.densify().tobytes() == ForwardModel._densify(model).tobytes()
    v = rng.standard_normal(shape[0]) + 1j * rng.standard_normal(shape[0])
    expected = model.scale * (model.entries.conj().T @ v)
    assert model.adjoint(v).tobytes() == expected.tobytes()
