"""Every solver reports the one penalized cost f(x) + beta R(x), and holds
its iterates in its objective's field."""

import numpy as np
import pytest

from poisson_pr.admm import run_admm
from poisson_pr.baselines import run_lbfgs
from poisson_pr.init_eval import initialize
from poisson_pr.mm import CurvatureKind, run_mm
from poisson_pr.objectives import (
    DiffOp,
    GaussianObjective,
    HuberTV,
    PoissonObjective,
    RegularizedObjective,
)
from poisson_pr.operators import (
    DIRECT_MAX_COLS,
    CanonicalDftModel,
    FieldTag,
    MaskedDftModel,
    SignalVector,
    calibrate_scale,
    make_masks,
    random_gaussian_model,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks, disk, random_complex
from poisson_pr.wf import StepKind, StepRule, TruncationRule, run_wf

N = 8


def _wf(kind):
    return lambda obj, x0, reg: run_wf(obj, x0, 6, rule=StepRule(kind), reg=reg)


def _mm(kind):
    return lambda obj, x0, reg: run_mm(obj, x0, 4, curvature=kind, reg=reg)


SOLVERS = {
    "wf-fisher": _wf(StepKind.FISHER),
    "wf-backtracking": _wf(StepKind.BACKTRACKING),
    "wf-exact-gaussian": _wf(StepKind.EXACT_GAUSSIAN),
    "mm-max": _mm(CurvatureKind.MAX),
    "mm-improved": _mm(CurvatureKind.IMPROVED),
    "admm": lambda obj, x0, reg: run_admm(obj, x0, 6, reg=reg),
    "lbfgs": lambda obj, x0, reg: run_lbfgs(obj, x0, 6, reg=reg),
}
CASES = (
    [(f"wf-{r}", pen) for r in ("fisher", "backtracking", "exact-gaussian")
     for pen in ("none", "huber")]
    + [(f"mm-{c}", pen) for c in ("max", "improved") for pen in ("none", "huber")]
    + [("admm", pen) for pen in ("none", "huber")]
    + [("lbfgs", pen) for pen in ("none", "huber")]
)


@pytest.mark.parametrize("solver,penalty", CASES)
def test_trace_reports_the_penalized_cost(solver, penalty):
    sig = blocks(N, seed=0)
    model = random_gaussian_model(48, N, seed=3, background=0.1)
    calibrate_scale(model, sig.values, 0.25)
    y = simulate_poisson(model, sig.values, 4).y
    cls = GaussianObjective if solver == "wf-exact-gaussian" else PoissonObjective
    obj = cls(model, y, field=sig.field)
    reg = None if penalty == "none" else HuberTV(0.5, 0.1, DiffOp(N))
    x0 = initialize(model, y, field=sig.field, iters=50, seed=0)
    state = SOLVERS[solver](obj, x0, reg)
    assert state.status == "ok"
    assert state.trace
    assert state.trace[-1].cost == RegularizedObjective(obj, reg).cost(state.x)


@pytest.mark.parametrize("solver", list(SOLVERS))
@pytest.mark.parametrize("penalty", ["none", "huber"])
def test_the_field_comes_from_the_objective(solver, penalty):
    # a real-nonnegative objective started from the same values tagged complex
    # runs exactly as from the values tagged real-nonnegative: each solver
    # takes its start in its objective's field
    sig = blocks(N, seed=0)
    model = random_gaussian_model(48, N, seed=3, background=0.1)
    calibrate_scale(model, sig.values, 0.25)
    y = simulate_poisson(model, sig.values, 4).y
    cls = GaussianObjective if solver == "wf-exact-gaussian" else PoissonObjective
    obj = cls(model, y, field=FieldTag.REAL_NONNEGATIVE)
    reg = None if penalty == "none" else HuberTV(0.5, 0.1, DiffOp(N))
    x0 = initialize(model, y, field=FieldTag.REAL_NONNEGATIVE, iters=50, seed=0)
    tagged = SOLVERS[solver](obj, x0, reg)
    untagged = SOLVERS[solver](obj, SignalVector(x0.values, FieldTag.COMPLEX), reg)
    assert tagged.status == "ok" and tagged.trace
    assert untagged.x.tobytes() == tagged.x.tobytes()
    assert untagged.costs().tobytes() == tagged.costs().tobytes()


def field_instance(kind, field):
    """(counts, model, start, Huber-TV penalty) of a Poisson instance in
    `field` on a dense model, a masked DFT or a canonical DFT, the DFT ones
    wider than DIRECT_MAX_COLS, so that their Grams are `CirculantGram`s."""
    dims = (9, 8) if kind == "canonical" else None
    n = N if kind == "dense" else DIRECT_MAX_COLS + 8
    if kind == "dense":
        model = random_gaussian_model(48, n, seed=3, background=0.1)
    elif kind == "masked":
        model = MaskedDftModel(make_masks(4, n, seed=1), background=0.1)
    else:
        model = CanonicalDftModel(dims, disk(9, 2).values.reshape(9, 2), background=0.1)
    values = (random_complex if field is FieldTag.COMPLEX else blocks)(n, seed=0).values
    calibrate_scale(model, values, 0.25)
    y = simulate_poisson(model, values, 4).y
    x0 = initialize(model, y, field=field, iters=50, seed=0)
    return y, model, x0, HuberTV(0.5, 0.1, DiffOp(n, dims=dims))


@pytest.mark.parametrize("kind", ["dense", "masked", "canonical"])
@pytest.mark.parametrize("field", list(FieldTag))
@pytest.mark.parametrize("solver,penalty", CASES)
def test_every_iterate_has_its_fields_dtype(solver, penalty, field, kind, monkeypatch):
    # float64 on a real field, complex128 on the complex one: the start, each
    # iterate the solver costs, each gradient and the result
    y, model, x0, tv = field_instance(kind, field)
    cls = GaussianObjective if solver == "wf-exact-gaussian" else PoissonObjective
    obj = cls(model, y, field=field)
    dtypes = set()
    cost, gradient = RegularizedObjective.cost, PoissonObjective.gradient

    def recorded_cost(self, x):
        dtypes.add(x.dtype)
        return cost(self, x)

    def recorded_gradient(self, x, keep=None):
        g = gradient(self, x, keep)
        dtypes.update((x.dtype, g.dtype))
        return g

    monkeypatch.setattr(RegularizedObjective, "cost", recorded_cost)
    monkeypatch.setattr(PoissonObjective, "gradient", recorded_gradient)
    state = SOLVERS[solver](obj, x0, None if penalty == "none" else tv)
    assert state.status == "ok" and state.trace
    dtypes.update((x0.values.dtype, state.x.dtype))
    assert dtypes == {np.dtype(float if field.is_real else complex)}


@pytest.mark.parametrize("solver", ["wf-fisher", "wf-backtracking", "mm-improved", "admm",
                                    "lbfgs"])
def test_non_finite_cost_ends_the_run(solver):
    sig = blocks(N, seed=0)
    model = random_gaussian_model(64, N, seed=3, background=0.1)
    calibrate_scale(model, sig.values, 0.25)
    obj = PoissonObjective(model, simulate_poisson(model, sig.values, 4).y,
                           field=sig.field)
    x0 = SignalVector(np.full(N, 1e200, dtype=complex), sig.field)
    with np.errstate(all="ignore"):
        state = SOLVERS[solver](obj, x0, None)
    assert state.status == "terminated: non-finite cost"
    assert state.trace == []
    assert np.array_equal(state.x, x0.values)


@pytest.mark.parametrize("solver", ["wf-fisher", "wf-backtracking", "lbfgs"])
def test_zero_gradient_start_ends_the_run(solver):
    sig = blocks(N, seed=0)
    model = random_gaussian_model(64, N, seed=3, background=0.1)
    calibrate_scale(model, sig.values, 0.25)
    obj = PoissonObjective(model, simulate_poisson(model, sig.values, 4).y,
                           field=sig.field)
    # the Poisson gradient A' psi'(A x) vanishes at x = 0 for any counts
    x0 = SignalVector(np.zeros(N, dtype=complex), sig.field)
    state = SOLVERS[solver](obj, x0, None)
    assert state.status == "terminated: zero gradient"
    assert state.trace == []
    assert np.array_equal(state.x, x0.values)


ZERO_RATE_CASES = {
    # at b = 0 the rate |Ax|^2 + b is 0 at x = 0: psi' is undefined there, and
    # so is psi where a count is positive
    "wf-fisher": (0.0, SOLVERS["wf-fisher"], "psi_dot undefined"),
    "wf-backtracking": (0.0, SOLVERS["wf-backtracking"], "psi_dot undefined"),
    "lbfgs": (0.0, SOLVERS["lbfgs"], "psi undefined"),
    # the truncation threshold divides by ||Ax||, whatever the background
    "wf-truncated": (0.1,
                     lambda obj, x0, reg: run_wf(obj, x0, 6, trunc=TruncationRule(10.0)),
                     "truncation undefined"),
}


@pytest.mark.parametrize("case", ZERO_RATE_CASES)
def test_undefined_start_ends_the_run(case):
    background, solver, reason = ZERO_RATE_CASES[case]
    sig = blocks(N, seed=0)
    model = random_gaussian_model(48, N, seed=3, background=background)
    calibrate_scale(model, sig.values, 0.25)
    obj = PoissonObjective(model, simulate_poisson(model, sig.values, 4).y,
                           field=sig.field)
    assert np.any(obj.y > 0)
    x0 = SignalVector(np.zeros(N, dtype=complex), sig.field)
    state = solver(obj, x0, None)
    assert state.status.startswith(f"terminated: {reason}")
    assert state.trace == []
    assert np.array_equal(state.x, x0.values)
