"""Wirtinger flow with interchangeable step-size engines and optional
gradient truncation."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .init_eval import RunState, TraceRow, error_metrics
# nrmse, psnr: only for the benchmark's tracer
from .init_eval import nrmse as _nrmse, psnr as _psnr  # noqa: F401
from .numerics import DegenerateIterateError, cubic_largest_root, real_dot
from .objectives import (
    GaussianObjective, HuberTV, PoissonObjective, RegularizedObjective,
)
from .operators import SignalVector, project_field


class StepKind(enum.Enum):
    FISHER = "fisher"
    BACKTRACKING = "backtracking"
    EXACT_GAUSSIAN = "exact_gaussian"


# Armijo backtracking
INITIAL_STEP = 1.0
SHRINK = 0.5
SUFFICIENT_DECREASE = 0.01
MAX_TRIALS = 30


@dataclass
class StepRule:
    kind: StepKind = StepKind.FISHER


@dataclass
class TruncationRule:
    a_h: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.a_h < np.inf:
            raise ValueError("truncation threshold a_h must be finite and positive")


def step_fisher(
    obj: PoissonObjective, x: NDArray, grad: NDArray, reg: HuberTV | None = None,
    weights: NDArray | None = None,
) -> tuple[float, NDArray]:
    """(mu, d): mu = ||grad||^2 / (d' D1 d + beta (T grad)' D2 (T grad)),
    d = A grad over the objective's rows (`forward_linear`), D1 its
    `fisher_diag`; with `reg`, the
    penalty term is `reg.curvature` along grad for D2 = `weights`, the Huber
    majorizer weights at x (`RegularizedObjective.gradient_and_weights`
    returns them with the gradient)."""
    gnorm2 = float(np.sum(np.abs(grad) ** 2))
    if gnorm2 == 0.0:
        raise DegenerateIterateError("zero gradient")
    d = obj.forward_linear(grad)
    d1 = obj.fisher_diag(obj.forward(x))
    denom = float(np.sum(d1 * np.abs(d) ** 2))
    if reg is not None:
        denom += reg.curvature(weights, grad)
    if denom <= 0.0:
        raise DegenerateIterateError("zero curvature along the gradient")
    return gnorm2 / denom, d


step_fisher_reg = step_fisher  # the name the benchmark's tracer wraps


def step_backtracking(cost_fn, x: NDArray, grad: NDArray) -> tuple[float, bool]:
    """Armijo backtracking: largest INITIAL_STEP * SHRINK^j passing sufficient
    decrease.

    Returns (mu, satisfied); when trials are exhausted, the smallest trial
    step is returned with satisfied=False.
    """
    gnorm2 = real_dot(grad, grad)
    if gnorm2 == 0.0:
        raise DegenerateIterateError("zero gradient")
    f0 = cost_fn(x)
    mu = INITIAL_STEP
    for _ in range(MAX_TRIALS):
        if cost_fn(x - mu * grad) <= f0 - SUFFICIENT_DECREASE * mu * gnorm2:
            return mu, True
        mu *= SHRINK
    return mu / SHRINK, False


def gaussian_line_coeffs(
    obj: GaussianObjective, x: NDArray, grad: NDArray
) -> tuple[tuple[float, float, float, float, float], NDArray]:
    """((a0..a4), w): the coefficients of the quartic mu -> g(x - mu*grad),
    and w = A grad (`forward_linear`), from which they are formed."""
    u = obj.forward(x)
    w = obj.forward_linear(grad)
    r = obj.y - obj.b - np.abs(u) ** 2
    c = np.real(np.conj(u) * w)
    w2 = np.abs(w) ** 2
    a0 = float(np.sum(r * r))
    a1 = float(4.0 * np.sum(r * c))
    a2 = float(np.sum(4.0 * c * c - 2.0 * r * w2))
    a3 = float(-4.0 * np.sum(c * w2))
    a4 = float(np.sum(w2 * w2))
    return (a0, a1, a2, a3, a4), w


def step_exact_gaussian(obj: GaussianObjective, x: NDArray, grad: NDArray
                        ) -> tuple[float, NDArray]:
    """(mu, A grad): mu the global minimizer over mu >= 0 of the quartic line
    restriction of g, whose leading coefficient a4 = ||A grad||_4^4 is 0 only
    where A grad = 0."""
    if np.all(grad == 0):
        raise DegenerateIterateError("zero gradient")
    (a0, a1, a2, a3, a4), w = gaussian_line_coeffs(obj, x, grad)
    if a4 == 0.0:
        raise DegenerateIterateError("degenerate line restriction")
    # with a4 > 0 the middle critical point is a local maximum; the smallest
    # is minus the largest root of the derivative reflected, m -> -m
    hi, neg_lo = cubic_largest_root(4.0 * a4, np.array([3.0 * a3, -3.0 * a3]),
                                    np.array([2.0 * a2, 2.0 * a2]), np.array([a1, -a1]))
    candidates = [0.0] + [float(m) for m in (hi, -neg_lo) if m >= 0.0]

    def line_cost(m):
        return ((a4 * m + a3) * m + a2) * m * m + a1 * m + a0

    best = min(candidates, key=lambda m: (line_cost(m), m))
    return float(best), w


def truncation_mask(obj: PoissonObjective, x: NDArray, a_h: float) -> NDArray:
    """Measurements kept by Chen & Candes' (2015) rule with the rows scaled to
    unit variance: |y - b - |Ax|^2| <= a_h mean(resid) |Ax| / (||Ax|| / sqrt(M)).
    Unchanged by x -> cx, y -> c^2 y, b -> c^2 b, and its level does not
    shrink with the model's scale; undefined where Ax = 0."""
    ax = np.abs(obj.forward(x))
    axnorm = float(np.linalg.norm(ax))
    if axnorm == 0.0:
        raise DegenerateIterateError("truncation undefined at Ax = 0")
    resid = np.abs(obj.y - obj.b - ax * ax)
    level = a_h * np.mean(resid) * ax * (np.sqrt(obj.model.rows) / axnorm)
    return resid <= level


def iterate(step: Callable, x0: NDArray, n_iters: int, cost: Callable,
            x_true: NDArray | None = None) -> RunState:
    """The solver loop x_k = step(k, x_{k-1}, warnings), k = 1..n_iters.

    Trace rows hold the steps' cumulative wall time, cost(x_k) and the
    phase-corrected NRMSE/PSNR. A DegenerateIterateError ends the run, and so
    does a non-finite cost, whose iterate is dropped: the run returns the one
    before it."""
    x = x0.copy()
    state = RunState(x=x)
    metrics = (error_metrics(x_true) if x_true is not None
               else lambda _: (float("nan"), float("nan")))
    elapsed = 0.0
    for k in range(1, n_iters + 1):
        t0 = time.perf_counter()
        try:
            x_new = step(k, x, state.warnings)
            elapsed += time.perf_counter() - t0
            c = cost(x_new)
            if not np.isfinite(c):
                raise DegenerateIterateError("non-finite cost")
        except DegenerateIterateError as exc:
            state.status = f"terminated: {exc}"
            break
        x = x_new
        nr, ps = metrics(x)
        state.trace.append(TraceRow(k, elapsed, c, nr, ps))
    state.x = x
    return state


def run_wf(
    obj: PoissonObjective,
    x0: SignalVector,
    n_iters: int,
    rule: StepRule | None = None,
    reg: HuberTV | None = None,
    trunc: TruncationRule | None = None,
    x_true: NDArray | None = None,
) -> RunState:
    """Wirtinger flow x_{k+1} = x_k - mu_k * grad, with per-iteration trace.

    Real-nonnegative signals are clamped to the nonnegative orthant after
    each update. Where the projection moves nothing and the step rule formed
    d = A grad (the Fisher and exact-Gaussian steps), the new iterate's
    forward product is remembered as A x_k - mu_k d, so its next step and
    truncation mask (and, off a `DenseModel`, its Poisson cost and gradient)
    read it without an `apply`; an iterate the projection moved gets its
    product from `apply` when one of them reads it.

    The products, costs and gradients take the objective's rows: the half
    spectrum of a real-field DFT model (`PoissonObjective`), every row
    elsewhere. A truncation mask is per row, so with `trunc` the run takes
    every row (`full_rows`).
    """
    rule = rule or StepRule()
    if trunc is not None:
        obj = obj.full_rows()
    field = obj.field
    cost = RegularizedObjective(obj, reg)
    last = [None, 0.0]  # the last iterate costed, shared by the guard and the trace

    def cost_of(x):
        if last[0] is not x:
            last[:] = x, cost.cost(x)
        return last[1]

    def step(k, x, warnings):
        keep = None if trunc is None else truncation_mask(obj, x, trunc.a_h)
        grad, weights = cost.gradient_and_weights(x, keep)
        line = None  # (A x, A grad) where the step rule forms A grad

        def move(mu):
            x_lin = x - mu * grad
            x_new = project_field(x_lin, field)
            if line is not None and np.array_equal(x_new, x_lin):
                obj.remember(x_new, line[0] - mu * line[1])
            return x_new

        if rule.kind is StepKind.FISHER:
            mu, d = step_fisher(obj, x, grad, reg, weights)
            line = obj.forward(x), d
            # rare early-iteration overshoot safeguard: halve once; x is costed
            # before x_new's product takes its place in the memo
            c_old = cost_of(x)
            x_new = move(mu)
            if cost_of(x_new) > c_old + 10.0 * abs(c_old):
                x_new = move(0.5 * mu)
                warnings.append(f"iter {k}: Fisher step halved once")
            return x_new
        if rule.kind is StepKind.BACKTRACKING:
            mu, ok = step_backtracking(cost_of, x, grad)
            if not ok:
                warnings.append(f"iter {k}: backtracking exhausted trials")
            x_new = move(mu)
            if np.array_equal(x_new, last[0]):
                x_new = last[0]  # the accepted trial, costed already
            return x_new
        if rule.kind is StepKind.EXACT_GAUSSIAN:
            if not isinstance(obj, GaussianObjective):
                raise TypeError("exact Gaussian line search needs a Gaussian cost")
            mu, d = step_exact_gaussian(obj, x, grad)
            line = obj.forward(x), d
            return move(mu)
        raise ValueError(f"unknown step rule {rule.kind}")  # pragma: no cover

    return iterate(step, x0.values, n_iters, cost_of, x_true)
