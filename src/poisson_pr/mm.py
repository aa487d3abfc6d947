"""Majorize-minimize solver with maximum and improved quadratic-majorizer
curvatures, plus the x-subproblem solve that it and ADMM share."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .init_eval import RunState
# cg_solve, and power_method, the Lanczos kernel under its former name: only
# for the benchmark's tracer, whose patch points keep that name until the
# benchmark change (ROADMAP item 7)
from .numerics import DegenerateIterateError, cg_solve, real_dot  # noqa: F401
from .numerics import lanczos_top as power_method  # noqa: F401
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
    the closed form 2 + y|s|^2 (b + r) / (b (b + |s|^2 + r)^2); psi_ddot is the
    marginal's second derivative 2 + 2y(u^2 - b)/(u^2 + b)^2 at u >= 0.

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


# budget of the x-subproblem solves: the Gram's `solve` (CG where it
# iterates), the Huber nonlinear CG and `minimize_dense_nonnegative`'s KKT
# stop. Only MM's unregularized step solves to STEP_TOL instead of
# INNER_TOL, as it needs only to lower its majorizer, which CG from 0 does
# at every iterate (Steihaug 1983)
INNER_ITERS, INNER_TOL = 50, 1e-9
STEP_TOL = 1e-3
# steps (Newton or half-quadratic) of the Huber solve on the orthant with a
# `DenseGram`, in place of INNER_ITERS there
HQ_STEPS = 30


@dataclass
class MajorizerContext:
    """Anchor-point data of the quadratic majorizer q(x; x_k)."""

    obj: PoissonObjective
    x_k: NDArray
    grad: NDArray       # `obj.gradient(x_k)`, A' psi_dot(A x_k) field-projected
    w: NDArray          # positive diagonal curvature vector
    quad_op: object     # A'WA, the `quad_form` of w

    @property
    def field(self) -> FieldTag:
        return self.obj.field


def build_majorizer(
    obj: PoissonObjective, x: NDArray, kind: CurvatureKind = CurvatureKind.IMPROVED
) -> MajorizerContext:
    """The majorizer at x. Its curvatures are 2 on the zero counts, where psi
    is exactly quadratic (both kinds give 2 there), and the chosen kind's on
    the rows P with a positive count, at s_P = `obj.positive_forward(x)`;
    with `obj.gradient`, a dense model makes no M x N product. A zero
    background on P leaves no majorizer: DegenerateIterateError.

    The curvatures are taken on the objective's rows, at its mean counts
    ybar. Both kinds are affine in y, so on a half spectrum the curvature
    at ybar is the mean of a pair's two, and Re(A'WA) with each row weighted
    by its pair's mean (`every_row`) equals the Gram of every row's own
    curvature."""
    pos, y, b = obj.positive, obj.y_pos, obj.b_pos
    if np.any(b <= 0):
        raise DegenerateIterateError("no quadratic majorizer exists with zero background")
    w = np.full(obj.b_rows.size, 2.0)
    if kind is CurvatureKind.MAX:
        w[pos] = curvature_max(y, b)
    else:
        w[pos] = curvature_improved(obj.positive_forward(x), y, b)
    w = obj.every_row(w)
    grad = obj.gradient(x)
    return MajorizerContext(obj=obj, x_k=x.copy(), grad=grad, w=w,
                            quad_op=quad_form(obj.model, w, obj.field))


def mm_update_unregularized(ctx: MajorizerContext) -> NDArray:
    """MM's step without a penalty: q(x; x_k) minimized over the field by
    `minimize_quad_plus_huber` to the relative residual STEP_TOL. Only the
    CG Grams (`CirculantGram`, `NormalOp`) see that tolerance; a dense or
    diagonal Gram solves exactly. The step lowers q however early CG stops,
    and the segment guard keeps a clamped step from raising it."""
    return minimize_quad_plus_huber(ctx.quad_op, ctx.grad, ctx.x_k, None, ctx.field,
                                    STEP_TOL)


def minimize_dense_nonnegative(quad: DenseGram, c: NDArray, x0: NDArray,
                               reg: HuberTV) -> NDArray:
    """argmin over x >= 0 of F(x) = 1/2 x'Qx - c'x + beta 1'h.(Tx; alpha), Q
    = `quad.h` positive definite, from max(x0, 0); floats in and out.

    Each step forms the Huber weights D = `reg.weights(x)` and F's gradient
    g = (Q + beta T'DT) x - c, and the loop ends at a KKT point,
    ||min(x, g)|| <= INNER_TOL max(1, ||c||), or after HQ_STEPS steps. A
    step first tries the Newton point of F, whose pieces are quadratic
    within the Huber knee and affine outside it: the minimizer over x >= 0
    of F's second-order model at x, Hessian Q + `reg.hessian_matrix(D)`. It
    keeps that point when it lowers F; once the pieces are right it is F's
    minimizer. Otherwise it takes a half-quadratic step (Geman & Yang 1995;
    Nikolova & Ng 2005), the minimizer over x >= 0 of F's majorizer
    1/2 x'(Q + beta T'DT)x - c'x, which lowers F. So F never rises. Both
    minimizers come from `DenseGram.solve_nonnegative`, warm-started at x.
    """
    def value(z):
        return 0.5 * z @ (quad @ z) - c @ z + reg.beta * reg.value(z)

    x = np.maximum(x0.real, 0.0)
    f = value(x)
    stop = INNER_TOL * max(1.0, np.linalg.norm(c))
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


def minimize_quad_plus_huber(quad, grad: NDArray, x0: NDArray, reg: HuberTV | None,
                             field: FieldTag, tol: float = INNER_TOL) -> NDArray:
    """The x-subproblem of MM and ADMM, the one place that keeps a step in its
    field: minimize F(x) = Re<grad, x - x0> + 1/2 (x - x0)'Q(x - x0)
    [+ beta 1'h.(Tx; alpha)] over the field, Q a `quad_form`, grad F's
    gradient at x0 without the penalty; the result is complex.

    - No penalty (reg None): x0 - Q^{-1} grad by `quad.solve`, projected onto
      the field. Where clamping onto the orthant raises F above F(x0), the
      minimizer of F on the segment from x0 to the clamped point is returned
      instead, its curvature p'Qp from Q: F does not rise, and no operator
      is called.
    - A penalty on the orthant with Q a `DenseGram`: the exact
      `minimize_dense_nonnegative`, so F does not rise.
    - A penalty otherwise: nonlinear CG, in float64 for real fields. Its
      line-search steps minimize a quadratic upper bound along the search
      direction: `reg.majorize` forms the Huber majorizer weights D of Tx
      with the penalty gradient beta T'(D Tx) once per iterate, and
      `reg.curvature` adds beta (Tp)' D (Tp) to the step's denominator. On
      the orthant it clamps negatives after each step, which can break
      descent.

    `quad.solve` (where it runs CG) and the nonlinear CG stop after
    INNER_ITERS iterations, `quad.solve` at the relative tolerance `tol` and
    the nonlinear CG at INNER_TOL. `tol` applies only to the unpenalized
    branch: `mm_update_unregularized` passes STEP_TOL, ADMM keeps the
    default INNER_TOL.
    """
    if reg is None:
        z = x0 - quad.solve(grad, INNER_ITERS, tol)
        x = project_field(z, field)
        if field is not FieldTag.REAL_NONNEGATIVE or not np.any(z.real < 0):
            return x
        # F(x0 + t p) = F(x0) + t slope + t^2 curv / 2
        p = x - x0
        slope = real_dot(grad, p)
        curv = real_dot(p, quad @ p)
        if slope + 0.5 * curv <= 0.0:
            return x
        t = min(max(-slope / curv, 0.0), 1.0)
        return project_field(x0 + t * p, field)
    lin = quad @ x0 - grad
    if type(quad) is DenseGram and field is FieldTag.REAL_NONNEGATIVE:
        return minimize_dense_nonnegative(quad, lin.real, x0, reg).astype(complex)
    dot = np.dot if field.is_real else real_dot
    lin, x = (lin.real, x0.real) if field.is_real else (lin, x0)

    def grad_weights(z):
        d, g_reg = reg.majorize(z)
        return quad @ z - lin + g_reg, d

    g, d = grad_weights(x)
    p = -g
    g2 = dot(g, g)
    stop = INNER_TOL * max(1.0, np.linalg.norm(lin))
    for _ in range(INNER_ITERS):
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


def run_mm(
    obj: PoissonObjective,
    x0: SignalVector,
    n_outer: int,
    curvature: CurvatureKind = CurvatureKind.IMPROVED,
    reg: HuberTV | None = None,
    x_true: NDArray | None = None,
) -> RunState:
    """MM outer loop: build the quadratic majorizer, minimize it over the
    field (plus the Huber-smoothed penalty, with a regularizer) by
    `minimize_quad_plus_huber`, repeat. A singular A'WA ends the run
    `terminated`.
    """

    def step(k, x, warnings):
        ctx = build_majorizer(obj, x, curvature)
        if reg is None:
            return mm_update_unregularized(ctx)
        return minimize_quad_plus_huber(ctx.quad_op, ctx.grad, ctx.x_k, reg, ctx.field)

    return iterate(step, x0.values, n_outer, RegularizedObjective(obj, reg).cost, x_true)
