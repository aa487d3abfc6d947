"""Majorize-minimize solver with maximum and improved quadratic-majorizer
curvatures, plus the inner solvers it needs."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .init_eval import RunState
# cg_solve, power_method: only for the benchmark's tracer
from .numerics import DegenerateIterateError, cg_solve, power_method, real_dot  # noqa: F401
from .objectives import HuberTV, PoissonObjective, RegularizedObjective
from .operators import DenseGram, FieldTag, SignalVector, project_field, quad_form
from .wf import iterate


class CurvatureKind(enum.Enum):
    MAX = "max"
    IMPROVED = "improved"


def curvature_max(y: NDArray, b: NDArray) -> NDArray:
    """Global curvature bound 2 + y/(4b); requires b > 0 when y > 0."""
    y = np.asarray(y, float)
    b = np.asarray(b, float)
    if np.any(b <= 0):
        raise ValueError("no quadratic majorizer exists with zero background")
    return 2.0 + y / (4.0 * b)


def curvature_improved(s, y, b):
    """Sharper curvature psi_ddot(u), u = (b + r)/|s|, r = sqrt(b^2 + b|s|^2), in
    the closed form 2 + y|s|^2 (b + r) / (b (b + |s|^2 + r)^2).

    Continuous in s with value 2 at s = 0; never exceeds curvature_max. |s| is
    capped at 1e75, where the value is 2 in double precision, so |s|^4 is finite.
    """
    b = np.asarray(b, float)
    if np.any(b <= 0):
        raise ValueError("no quadratic majorizer exists with zero background")
    s2 = np.minimum(np.abs(np.asarray(s)), 1e75) ** 2
    root = np.sqrt(b * b + b * s2)
    out = 2.0 + y * s2 * (b + root) / (b * (b + s2 + root) ** 2)
    return out if out.ndim else float(out)


# MM's inner solvers (the Gram's solve, Huber nonlinear CG)
CG_ITERS, CG_TOL = 30, 1e-9
HUBER_ITERS, HUBER_TOL = 50, 1e-9
# steps (Newton or half-quadratic) of the Huber inner solve on the orthant
# with a `DenseGram`, in place of HUBER_ITERS and admm.X_ITERS there
HQ_STEPS = 30


@dataclass
class MajorizerContext:
    """Anchor-point data of the quadratic majorizer q(x; x_k)."""

    obj: PoissonObjective
    x_k: NDArray
    grad: NDArray       # A' psi_dot(A x_k), field-projected
    w: NDArray          # positive diagonal curvature vector
    f_k: float
    quad_op: object     # A'WA, the `quad_form` of w

    @property
    def field(self) -> FieldTag:
        return self.obj.field


def build_majorizer(
    obj: PoissonObjective, x: NDArray, kind: CurvatureKind = CurvatureKind.IMPROVED
) -> MajorizerContext:
    s = obj.forward(x)
    if kind is CurvatureKind.MAX:
        w = curvature_max(obj.y, obj.b)
    else:
        w = curvature_improved(s, obj.y, obj.b)
    grad = obj.gradient(x)
    return MajorizerContext(obj=obj, x_k=x.copy(), grad=grad, w=w, f_k=obj.cost(x),
                            quad_op=quad_form(obj.model, w, obj.field))


def majorizer_value(ctx: MajorizerContext, x: NDArray) -> float:
    """q(x; x_k) = f(x_k) + Re<dx, grad> + 1/2 dx' A'WA dx."""
    dx = x - ctx.x_k
    ad = ctx.obj.model.apply_linear(dx)
    quad = 0.5 * float(np.sum(ctx.w * np.abs(ad) ** 2))
    return ctx.f_k + real_dot(ctx.grad, dx) + quad


def mm_update_unregularized(ctx: MajorizerContext) -> NDArray:
    """x_k - (A'WA)^{-1} A' psi_dot(A x_k), projected onto the field.

    Clamping onto the nonnegative orthant can raise q above f(x_k); then the
    exact minimizer of q on the segment from x_k to the clamped point is
    returned instead, which is feasible and keeps q(x_new) <= f(x_k)."""
    z = ctx.x_k - ctx.quad_op.solve(ctx.grad, CG_ITERS, CG_TOL)
    x = project_field(z, ctx.field)
    if ctx.field is not FieldTag.REAL_NONNEGATIVE or not np.any(z.real < 0):
        return x
    # q(x_k + t p) = f_k + t slope + t^2 curv / 2
    p = x - ctx.x_k
    slope = real_dot(ctx.grad, p)
    curv = float(np.sum(ctx.w * np.abs(ctx.obj.model.apply_linear(p)) ** 2))
    if slope + 0.5 * curv <= 0.0:
        return x
    t = min(max(-slope / curv, 0.0), 1.0)
    return project_field(ctx.x_k + t * p, ctx.field)


def minimize_dense_nonnegative(quad: DenseGram, c: NDArray, x0: NDArray, reg: HuberTV,
                               tol: float) -> NDArray:
    """argmin over x >= 0 of F(x) = 1/2 x'Qx - c'x + beta 1'h.(Tx; alpha), Q
    = `quad.h` positive definite, from max(x0, 0); floats in and out.

    Each step forms the Huber weights D = `reg.weights(x)` and F's gradient
    g = (Q + beta T'DT) x - c, and the loop ends at a KKT point,
    ||min(x, g)|| <= tol max(1, ||c||), or after HQ_STEPS steps. A step first
    tries the Newton point of F, whose pieces are quadratic within the Huber
    knee and affine outside it: the minimizer over x >= 0 of F's second-order
    model at x, Hessian Q + `reg.hessian_matrix(D)`. It keeps that point when
    it lowers F; once the pieces are right it is F's minimizer. Otherwise it
    takes a half-quadratic step (Geman & Yang 1995; Nikolova & Ng 2005), the
    minimizer over x >= 0 of F's majorizer 1/2 x'(Q + beta T'DT)x - c'x,
    which lowers F. So F never rises. Both minimizers come from
    `DenseGram.solve_nonnegative`, warm-started at x.
    """
    def value(z):
        return 0.5 * z @ (quad @ z) - c @ z + reg.beta * reg.value(z)

    x = np.maximum(x0.real, 0.0)
    f = value(x)
    stop = tol * max(1.0, np.linalg.norm(c))
    for _ in range(HQ_STEPS):
        d = reg.weights(x)
        majorizer = DenseGram(quad.h + reg.curvature_matrix(d), quad.field)
        g = majorizer @ x - c
        if np.linalg.norm(np.minimum(x, g)) <= stop:
            break
        newton = DenseGram(quad.h + reg.hessian_matrix(d), quad.field)
        try:
            z = newton.solve_nonnegative(newton @ x - g, x)
            fz = value(z)
        except DegenerateIterateError:  # a singular or ill-conditioned Newton model
            fz = np.inf
        if fz < f:
            x, f = z, fz
        else:
            x = majorizer.solve_nonnegative(c, x)
            f = value(x)
    return x


def minimize_quad_plus_huber(
    quad,
    lin: NDArray,
    x0: NDArray,
    reg: HuberTV,
    field: FieldTag,
    inner_iters: int,
    tol: float,
) -> NDArray:
    """Minimize F(x) = 1/2 x'Qx - Re<lin, x> + beta 1'h.(Tx; alpha) over the
    field, Q a `quad_form`, in float64 for real fields; the result is complex.

    On the nonnegative orthant with Q a `DenseGram` (at most
    DIRECT_MAX_COLS columns), `minimize_dense_nonnegative` solves it to a
    KKT point within `tol`, and `inner_iters` is not read. Otherwise by
    nonlinear CG with at most `inner_iters` iterations: line-search steps
    come from `reg.majorize`, which forms the Huber quadratic-majorizer
    weights D of Tx once per iterate together with the penalty gradient
    beta T'(D Tx); `reg.curvature` adds beta (Tp)' D (Tp) to the step's
    denominator, so each step minimizes a local quadratic upper bound along
    the search direction. Reduces to linear CG when beta = 0. On the
    orthant (the circulant, `NormalOp` and diagonal forms) it clamps
    negatives after each step, which can break descent.
    """
    if type(quad) is DenseGram and field is FieldTag.REAL_NONNEGATIVE:
        return minimize_dense_nonnegative(quad, lin.real, x0, reg, tol).astype(complex)
    dot = np.dot if field.is_real else real_dot
    lin, x = (lin.real, x0.real) if field.is_real else (lin, x0)

    def grad_weights(z):
        d, g_reg = reg.majorize(z)
        return quad @ z - lin + g_reg, d

    g, d = grad_weights(x)
    p = -g
    g2 = dot(g, g)
    stop = tol * max(1.0, np.linalg.norm(lin))
    for _ in range(inner_iters):
        if np.sqrt(g2) <= stop:
            break
        denom = dot(p, quad @ p) + reg.curvature(d, p)
        if denom <= 0:
            break
        mu = -dot(g, p) / denom
        x = x + mu * p
        if field is FieldTag.REAL_NONNEGATIVE:
            x = np.maximum(x, 0.0)
        g_new, d = grad_weights(x)
        g2_new = dot(g_new, g_new)
        beta_pr = max(0.0, (g2_new - dot(g_new, g)) / g2)  # Polak-Ribiere+
        p = -g_new + beta_pr * p
        if dot(g_new, p) >= 0:
            p = -g_new
        g, g2 = g_new, g2_new
    return np.array(x, dtype=complex)


def mm_update_huber(ctx: MajorizerContext, reg: HuberTV) -> NDArray:
    """Minimize q(x; x_k) + beta 1'h.(Tx; alpha) from x_k by
    `minimize_quad_plus_huber`: exactly (Newton and half-quadratic steps,
    HQ_STEPS at most) on the nonnegative orthant with a `DenseGram`, so the
    step never raises the cost; else by nonlinear CG (HUBER_ITERS)."""
    lin = ctx.quad_op @ ctx.x_k - ctx.grad
    return minimize_quad_plus_huber(ctx.quad_op, lin, ctx.x_k, reg, ctx.field,
                                    HUBER_ITERS, HUBER_TOL)


def run_mm(
    obj: PoissonObjective,
    x0: SignalVector,
    n_outer: int,
    curvature: CurvatureKind = CurvatureKind.IMPROVED,
    reg: HuberTV | None = None,
    x_true: NDArray | None = None,
) -> RunState:
    """MM outer loop: build the quadratic majorizer, minimize it, repeat.

    With a regularizer, `mm_update_huber` minimizes the majorizer plus the
    Huber-smoothed penalty: exactly for nonnegative signals of at most
    DIRECT_MAX_COLS unknowns, which keeps MM monotone, else by nonlinear CG;
    unregularized updates solve the normal equations by the majorizer's
    `quad_op.solve` (diagonal, direct or CG).
    """

    def step(k, x, warnings):
        ctx = build_majorizer(obj, x, curvature)
        if reg is not None:
            return mm_update_huber(ctx, reg)
        return mm_update_unregularized(ctx)

    return iterate(step, x0.values, n_outer, RegularizedObjective(obj, reg).cost, x_true)
