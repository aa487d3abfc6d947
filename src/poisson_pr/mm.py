"""Majorize-minimize solver with maximum and improved quadratic-majorizer
curvatures, plus the inner solvers it needs."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .init_eval import RunState
# cg_solve, power_method: only for the benchmark's tracer
from .numerics import cg_solve, power_method, real_dot  # noqa: F401
from .objectives import HuberTV, PoissonObjective, RegularizedObjective
from .operators import FieldTag, SignalVector, project_field, quad_form
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


def minimize_quad_plus_huber(
    quad,
    lin: NDArray,
    x0: NDArray,
    reg: HuberTV,
    field: FieldTag,
    inner_iters: int,
    tol: float,
) -> NDArray:
    """Nonlinear CG for F(x) = 1/2 x'Qx - Re<lin, x> + beta 1'h.(Tx; alpha),
    Q a `quad_form`, in float64 for real fields; the result is complex.

    Line-search steps come from `reg.majorize`, which forms the Huber
    quadratic-majorizer weights D of Tx once per iterate together with the
    penalty gradient beta T'(D Tx); `reg.curvature` adds beta (Tp)' D (Tp) to
    the step's denominator, so each step minimizes a local quadratic upper
    bound along the search direction. Reduces to linear CG when beta = 0.
    """
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
    """Minimize q(x; x_k) + beta 1'h.(Tx; alpha) by nonlinear CG."""
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

    With a regularizer, the inner problem is solved by nonlinear CG on the
    Huber-smoothed penalty; unregularized updates solve the normal equations
    by the majorizer's `quad_op.solve` (diagonal, direct or CG).
    """

    def step(k, x, warnings):
        ctx = build_majorizer(obj, x, curvature)
        if reg is not None:
            return mm_update_huber(ctx, reg)
        return mm_update_unregularized(ctx)

    return iterate(step, x0.values, n_outer, RegularizedObjective(obj, reg).cost, x_true)
