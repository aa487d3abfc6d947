"""Every solver reports the one penalized cost f(x) + beta R(x)."""

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
    FieldTag,
    SignalVector,
    calibrate_scale,
    random_gaussian_model,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks
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


@pytest.mark.parametrize("solver", ["wf-fisher", "admm"])
@pytest.mark.parametrize("penalty", ["none", "huber"])
def test_the_field_comes_from_the_objective(solver, penalty):
    # a real-nonnegative objective started from the same values tagged complex
    # runs exactly as from the values tagged real-nonnegative
    sig = blocks(N, seed=0)
    model = random_gaussian_model(48, N, seed=3, background=0.1)
    calibrate_scale(model, sig.values, 0.25)
    y = simulate_poisson(model, sig.values, 4).y
    obj = PoissonObjective(model, y, field=FieldTag.REAL_NONNEGATIVE)
    reg = None if penalty == "none" else HuberTV(0.5, 0.1, DiffOp(N))
    x0 = initialize(model, y, field=FieldTag.REAL_NONNEGATIVE, iters=50, seed=0)
    tagged = SOLVERS[solver](obj, x0, reg)
    untagged = SOLVERS[solver](obj, SignalVector(x0.values, FieldTag.COMPLEX), reg)
    assert np.array_equal(untagged.x, tagged.x)
    assert np.array_equal(untagged.costs(), tagged.costs())


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
