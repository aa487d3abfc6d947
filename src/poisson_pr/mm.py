"""Majorize-minimize solver with maximum and improved quadratic-majorizer
curvatures, plus the inner solvers it needs."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .init_eval import RunState
from .numerics import cg_solve, power_method, real_dot, soft_threshold
from .objectives import HuberTV, PoissonObjective, RegularizedObjective, psi, psi_dot
from .operators import FieldTag, SignalVector, project_field
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


def curvature_optimal_numeric(
    s: float, y: float, b: float, grid_points: int = 4001, range_mult: float = 1.0
) -> float:
    """Numerical supremum of the secant-curvature ratio over a fixed r grid
    (a test oracle for the closed-form curvatures, not a solver option)."""
    if y == 0.0:
        return 2.0
    s = float(np.abs(s))
    radius = range_mult * max(20.0, 4.0 * s, 8.0 * np.sqrt(b))
    r = np.linspace(-radius, radius, grid_points)
    r = r[np.abs(r - s) >= 1e-8]
    num = 2.0 * (psi(r, y, b) - psi(s, y, b) - psi_dot(s, y, b).real * (r - s))
    return float(np.max(num / (r - s) ** 2))


@dataclass
class MajorizerContext:
    """Anchor-point data of the quadratic majorizer q(x; x_k)."""

    obj: PoissonObjective
    x_k: NDArray
    s: NDArray          # A x_k (field at the anchor)
    grad: NDArray       # A' psi_dot(s), field-projected
    w: NDArray          # positive diagonal curvature vector
    f_k: float

    @property
    def field(self) -> FieldTag:
        return self.obj.field

    def quad_op(self, z: NDArray) -> NDArray:
        """Action of A'WA (real part for real fields)."""
        out = self.obj.model.adjoint(self.w * self.obj.model.apply_linear(z))
        return out.real.astype(complex) if self.field.is_real else out


def build_majorizer(
    obj: PoissonObjective, x: NDArray, kind: CurvatureKind = CurvatureKind.IMPROVED
) -> MajorizerContext:
    s = obj.model.apply(x)
    if kind is CurvatureKind.MAX:
        w = curvature_max(obj.y, obj.b)
    else:
        w = curvature_improved(s, obj.y, obj.b)
    grad = obj._fieldify(obj.model.adjoint(obj.marginal_grad(s)))
    return MajorizerContext(obj=obj, x_k=x.copy(), s=s, grad=grad, w=w, f_k=obj.cost(x))


def majorizer_value(ctx: MajorizerContext, x: NDArray) -> float:
    """q(x; x_k) = f(x_k) + Re<dx, grad> + 1/2 dx' A'WA dx."""
    dx = x - ctx.x_k
    ad = ctx.obj.model.apply_linear(dx)
    quad = 0.5 * float(np.sum(ctx.w * np.abs(ad) ** 2))
    return ctx.f_k + real_dot(ctx.grad, dx) + quad


def _densified_quad(ctx: MajorizerContext) -> NDArray:
    a = ctx.obj.model.densify()
    h = a.conj().T @ (ctx.w[:, None] * a)
    return h.real if ctx.field.is_real else h


def mm_update_unregularized(
    ctx: MajorizerContext,
    direct_threshold: int = 64,
    cg_iters: int = 30,
    cg_tol: float = 1e-9,
) -> NDArray:
    """x_k - (A'WA)^{-1} A' psi_dot(A x_k); direct solve for small N, else CG."""
    n = ctx.obj.model.cols
    rhs = ctx.grad
    if n <= direct_threshold:
        h = _densified_quad(ctx)
        if np.linalg.cond(h) > 1e14:
            raise np.linalg.LinAlgError("A'WA is singular: rank-deficient model")
        d = np.linalg.solve(h, rhs.real if ctx.field.is_real else rhs)
    else:
        d = cg_solve(ctx.quad_op, rhs, iters=cg_iters, tol=cg_tol)
    return project_field(ctx.x_k - d, ctx.field)


def _quad_grad(ctx: MajorizerContext, x: NDArray) -> NDArray:
    """Gradient of q(.; x_k) at x."""
    return ctx.grad + ctx.quad_op(x - ctx.x_k)


def estimate_lipschitz(ctx: MajorizerContext, iters: int = 50, seed: int = 3) -> float:
    lam, _ = power_method(ctx.quad_op, ctx.obj.model.cols, iters=iters, seed=seed)
    return 1.05 * lam


def mm_update_prox_l1(
    ctx: MajorizerContext,
    diff_op=None,
    beta: float = 0.0,
    inner_iters: int = 100,
    tol: float = 1e-10,
) -> tuple[NDArray, bool]:
    """Approximately minimize q(x; x_k) + beta ||T x||_1.

    Accelerated proximal gradient with function-value restart; the prox
    assumes T is orthonormal (identity when diff_op is None).
    """
    lip = estimate_lipschitz(ctx)
    if lip <= 0:
        return ctx.x_k.copy(), True
    step = 1.0 / lip

    def prox(z, tau):
        if diff_op is None:
            out = soft_threshold(z, tau)
        else:
            tz = diff_op.apply(z)
            out = z + diff_op.adjoint(soft_threshold(tz, tau) - tz)
        return project_field(out, ctx.field)

    def total(z):
        pen = np.sum(np.abs(z if diff_op is None else diff_op.apply(z)))
        return majorizer_value(ctx, z) + beta * float(pen)

    x = ctx.x_k.copy()
    z = x.copy()
    t = 1.0
    f_start = total(x)
    f_prev = f_start
    best_x, best_f = x.copy(), f_start
    converged = False
    for _ in range(inner_iters):
        x_new = prox(z - step * _quad_grad(ctx, z), step * beta)
        f_new = total(x_new)
        if f_new > f_prev:  # function-value restart
            t = 1.0
            z = x.copy()
            x_new = prox(z - step * _quad_grad(ctx, z), step * beta)
            f_new = total(x_new)
        if f_new < best_f:
            best_x, best_f = x_new.copy(), f_new
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        if np.linalg.norm(x_new - x) <= tol * max(1.0, np.linalg.norm(x)):
            x, f_prev = x_new, f_new
            converged = True
            break
        x, t, f_prev = x_new, t_new, f_new
    # when T is not orthonormal the prox step is inexact and a single sweep
    # can regress; returning the best surrogate-value iterate keeps the outer
    # MM loop monotone
    if total(x) > best_f:
        return best_x, converged
    return x, converged


def minimize_quad_plus_huber(
    quad_op,
    lin: NDArray,
    x0: NDArray,
    reg: HuberTV,
    field: FieldTag,
    inner_iters: int = 50,
    tol: float = 1e-9,
) -> NDArray:
    """Nonlinear CG for F(x) = 1/2 x'Qx - Re<lin, x> + beta 1'h.(Tx; alpha).

    Line-search steps come from the exact Huber quadratic-majorizer weight,
    so each step minimizes a local quadratic upper bound along the search
    direction. Reduces to linear CG when beta = 0.
    """
    beta = reg.beta

    def grad_fn(z):
        g = quad_op(z) - lin
        if beta > 0:
            g = g + reg.gradient(z)
        return g.real.astype(complex) if field.is_real else g

    x = x0.copy()
    g = grad_fn(x)
    p = -g
    g2 = real_dot(g, g)
    for _ in range(inner_iters):
        if np.sqrt(g2) <= tol * max(1.0, np.linalg.norm(lin)):
            break
        qp = quad_op(p)
        denom = real_dot(p, qp)
        if beta > 0:
            tp = reg.diff_op.apply(p)
            denom += beta * float(np.sum(reg.weights(x) * np.abs(tp) ** 2))
        if denom <= 0:
            break
        mu = -real_dot(g, p) / denom
        x = project_field(x + mu * p, field)
        g_new = grad_fn(x)
        g2_new = real_dot(g_new, g_new)
        beta_pr = max(0.0, (g2_new - real_dot(g_new, g)) / g2)  # Polak-Ribiere+
        p = -g_new + beta_pr * p
        if real_dot(g_new, p) >= 0:
            p = -g_new
        g, g2 = g_new, g2_new
    return x


def mm_update_huber(
    ctx: MajorizerContext, reg: HuberTV, inner_iters: int = 50, tol: float = 1e-9
) -> NDArray:
    """Minimize q(x; x_k) + beta 1'h.(Tx; alpha) by nonlinear CG."""
    lin = ctx.quad_op(ctx.x_k) - ctx.grad
    return minimize_quad_plus_huber(
        ctx.quad_op, lin, ctx.x_k, reg, ctx.field, inner_iters=inner_iters, tol=tol
    )


@dataclass
class InnerConfig:
    direct_threshold: int = 64
    cg_iters: int = 30
    cg_tol: float = 1e-9
    prox_iters: int = 100
    huber_iters: int = 50


def run_mm(
    obj: PoissonObjective,
    x0: SignalVector,
    n_outer: int,
    curvature: CurvatureKind = CurvatureKind.IMPROVED,
    reg: HuberTV | None = None,
    l1: bool = False,
    inner: InnerConfig | None = None,
    x_true: NDArray | None = None,
) -> RunState:
    """MM outer loop: build the quadratic majorizer, minimize it, repeat.

    With a regularizer, the inner problem is solved by accelerated proximal
    gradient (l1=True, prox-friendly T) or nonlinear CG on the Huber-smoothed
    penalty; unregularized updates use a direct solve or CG.
    """
    inner = inner or InnerConfig()

    def step(k, x, warnings):
        ctx = build_majorizer(obj, x, curvature)
        if reg is not None and l1:
            x, ok = mm_update_prox_l1(
                ctx, reg.diff_op, reg.beta, inner_iters=inner.prox_iters
            )
            if not ok:
                warnings.append(f"outer {k}: inner prox loop hit max iters")
            return x
        if reg is not None:
            return mm_update_huber(ctx, reg, inner_iters=inner.huber_iters)
        return mm_update_unregularized(
            ctx, inner.direct_threshold, inner.cg_iters, inner.cg_tol
        )

    return iterate(step, x0.values, n_outer, RegularizedObjective(obj, reg, l1).cost,
                   x_true)
