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
    SignalVector,
    calibrate_scale,
    random_gaussian_model,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks
from poisson_pr.wf import StepKind, StepRule, run_wf

N = 8


def _wf(kind):
    return lambda obj, x0, reg, l1: run_wf(obj, x0, 6, rule=StepRule(kind), reg=reg)


def _mm(kind):
    return lambda obj, x0, reg, l1: run_mm(obj, x0, 4, curvature=kind, reg=reg, l1=l1)


SOLVERS = {
    "wf-fisher": _wf(StepKind.FISHER),
    "wf-backtracking": _wf(StepKind.BACKTRACKING),
    "wf-exact-gaussian": _wf(StepKind.EXACT_GAUSSIAN),
    "mm-max": _mm(CurvatureKind.MAX),
    "mm-improved": _mm(CurvatureKind.IMPROVED),
    "admm": lambda obj, x0, reg, l1: run_admm(obj, x0, 6, reg=reg, l1=l1),
    "lbfgs": lambda obj, x0, reg, l1: run_lbfgs(obj, x0, 6, reg=reg),
}
CASES = (
    [(f"wf-{r}", pen) for r in ("fisher", "backtracking", "exact-gaussian")
     for pen in ("none", "huber")]
    + [(f"mm-{c}", pen) for c in ("max", "improved") for pen in ("none", "huber", "l1")]
    + [("admm", pen) for pen in ("none", "huber", "l1")]
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
    l1 = penalty == "l1"
    x0 = initialize(model, y, field=sig.field, iters=50, seed=0)
    state = SOLVERS[solver](obj, x0, reg, l1)
    assert state.status == "ok"
    assert state.trace
    assert state.trace[-1].cost == RegularizedObjective(obj, reg, l1).cost(state.x)


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
        state = SOLVERS[solver](obj, x0, None, False)
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
    state = SOLVERS[solver](obj, x0, None, False)
    assert state.status == "terminated: zero gradient"
    assert state.trace == []
    assert np.array_equal(state.x, x0.values)
