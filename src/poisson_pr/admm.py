"""ADMM for the Poisson ML problem with the v = Ax splitting: closed-form
phase/magnitude updates, a least-squares x update, dual ascent, and an
adaptive penalty heuristic."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .init_eval import RunState
from .mm import minimize_quad_plus_huber
# cg_solve, power_method: only for the benchmark's tracer
from .numerics import cg_solve, cubic_largest_root, power_method, real_dot  # noqa: F401
from .objectives import HuberTV, PoissonObjective, RegularizedObjective
from .operators import FieldTag, ForwardModel, SignalVector, quad_form, realify
from .wf import DegenerateIterateError, iterate


def update_v_magnitude_bpos(t, y, b, rho: float):
    """Magnitude update for a background b >= 0: the minimizer over m >= 0 of
    the marginal augmented Lagrangian m^2 + b - y log(m^2 + b) + (rho/2)(m - t)^2,
    the largest real root of (2+rho) m^3 - rho t m^2 + (2b - 2y + rho b) m - rho b t.

    At y = 0 the cubic factors as (m^2 + b)((2+rho) m - rho t): the zero-count
    rows, most of them at low counts, take m = rho t / (2+rho) in closed form,
    and only the y > 0 rows go to `cubic_largest_root`. There the largest root
    is the minimizer: for t > 0 it is the only positive root, at t = 0 it is
    sqrt(max(0, 2y/(2+rho) - b)), and at b = 0 the cubic is m times the
    quadratic (2+rho) m^2 - rho t m - 2y. A root that is not finite (a
    coefficient such as 2y or rho t overflowed) or not nonnegative raises
    DegenerateIterateError. A scalar t gives a float, an array of any length
    (none included) an array.
    """
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, float))
    y = np.broadcast_to(np.asarray(y, float), t.shape)
    b = np.broadcast_to(np.asarray(b, float), t.shape)
    if np.any(b < 0):
        raise ValueError("update_v_magnitude_bpos requires b >= 0")
    out = rho * t / (2.0 + rho)
    pos = np.flatnonzero(y > 0)
    if pos.size:
        tp, yp, bp = t[pos], y[pos], b[pos]
        m = cubic_largest_root(2.0 + rho, -rho * tp, 2.0 * bp - 2.0 * yp + rho * bp,
                               -rho * bp * tp)
        if not np.all(np.isfinite(m)):
            raise DegenerateIterateError("non-finite cost")
        if np.any(m < 0):
            raise DegenerateIterateError("magnitude update found no nonnegative root")
        out[pos] = m
    return float(out[0]) if scalar else out


def update_v(ax: NDArray, eta: NDArray, y: NDArray, b: NDArray, rho: float) -> NDArray:
    """Split-variable update v = m sign(u), u = A x - eta, with sign(0) := 1
    and m = `update_v_magnitude_bpos` at t = |u|.

    u and t are formed once, and v = u (m / t) where t > 0, v = m where
    t = 0: no complex division."""
    u = ax - eta
    t = np.abs(u)
    m = update_v_magnitude_bpos(t, y, b, rho)
    nonzero = t > 0
    v = u * np.divide(m, t, out=np.zeros_like(t), where=nonzero)
    zero = np.flatnonzero(~nonzero)
    if zero.size:
        v[zero] = m[zero]
    return v


def update_dual(eta: NDArray, v: NDArray, ax: NDArray) -> NDArray:
    """eta <- eta + (v - A x)."""
    return eta + (v - ax)


def update_rho(rho: float, primal_res_norm: float, dual_res_norm: float, k: int) -> float:
    """Adaptive penalty: every 10th iteration, double/halve when one residual
    exceeds ten times the other (Boyd et al. 2011, section 3.4.1, mu = 10).
    The dual residual ||rho A'(v - v_old)|| carries rho already."""
    if k % 10 != 0:
        return rho
    if primal_res_norm > 10.0 * dual_res_norm:
        return 2.0 * rho
    if dual_res_norm > 10.0 * primal_res_norm:
        return rho / 2.0
    return rho


def update_x(
    model: ForwardModel,
    ax: NDArray,
    v: NDArray,
    eta: NDArray,
    field: FieldTag,
    x0: NDArray,
    reg: HuberTV | None = None,
    rho: float = 1.0,
    quad=None,
    adjoint=None,
    rest: NDArray | None = None,
) -> NDArray:
    """Least-squares x update, with optional Huber regularization: MM's step
    (`minimize_quad_plus_huber`) on (rho/2)||Ax - v - eta||^2 [+ beta R(x)]
    from x0, with Gram `quad_form(model, rho)` and gradient rho A'(ax - v - eta),
    `ax` = A x0 with the canonical DFT's offset.

    `quad` is that Gram where the caller has formed it. Where the split keeps
    only some rows R explicit, ax, v and eta are those rows', `adjoint` is
    A_R' and `rest` the gradient's part from the other rows."""
    if quad is None:
        quad = quad_form(model, rho, field)
    grad = (model.adjoint if adjoint is None else adjoint)(rho * (ax - v - eta))
    if rest is not None:
        grad = grad + rest
    return minimize_quad_plus_huber(quad, realify(grad, field), x0, reg, field)


def check_rho0(rho0) -> float:
    """The starting penalty as a float; a ValueError unless finite and positive."""
    rho0 = float(rho0)
    if not 0.0 < rho0 < np.inf:
        raise ValueError("ADMM penalty rho0 must be finite and positive")
    return rho0


def run_admm(
    obj: PoissonObjective,
    x0: SignalVector,
    n_iters: int,
    rho0: float = 8.0,
    reg: HuberTV | None = None,
    x_true: NDArray | None = None,
) -> RunState:
    """ADMM outer loop: v (`update_v`: one modulus of A x - eta for both the
    phase and the magnitude), x, dual, penalty update. The x update is MM's
    step on `quad_form(model, rho)`, rho times the model's remembered A'A,
    formed once per rho; a singular A'A ends the run `terminated`.

    The split is kept explicitly on the rows R alone. On a zero count the
    magnitude update is linear, v_Z = c (A_Z x - eta_Z) with c = rho/(2+rho),
    so from eta = 0 the dual stays in the range of A_Z: eta_Z = A_Z omega and
    v_Z = A_Z z, with z = c (x - omega) and omega <- omega + z - x_new. Each
    zero-count term is then a product with G_Z = A_Z'A_Z
    (`PoissonObjective.zero_count_split`): the x-update gradient's
    rho G_Z (x - z - omega) = rho (1 - c) G_Z (x - omega), formed in the
    second way, which cancels nothing as c nears 1, the primal residual's
    ||A_Z(x_new - z)||^2 =
    (x_new - z)'G_Z(x_new - z) and the dual residual's A_Z'(v_Z - v_Z_old) =
    G_Z(z - z_old). On a `DenseModel` R = P, the positive counts, and
    A_P x is `positive_forward`'s, which the trace cost reads too: an
    iteration makes no `apply`, no `adjoint` and no M-length array. On
    other models R is every row and Z is empty."""
    model, field = obj.model, obj.field
    split = obj.zero_count_split()
    if split is None:
        y, b, forward, adjoint, g_z = obj.y, obj.b, obj.forward, model.adjoint, None
    else:
        a_p, g_z = split
        y, b, forward = obj.y[obj.positive], obj.b[obj.positive], obj.positive_forward

        def adjoint(r):
            # conj(A_P' r) = conj(r) A_P, which conjugates no matrix
            return (r.conj() @ a_p).conj()
    ax = forward(x0.values)
    v = ax.copy()
    eta = v - ax  # zero by initialization
    z, omega = x0.values, np.zeros(model.cols, dtype=complex)  # v_Z = A_Z x0, eta_Z = 0
    rho = check_rho0(rho0)
    quad = quad_form(model, rho, field)

    def step(k, x, warnings):
        nonlocal ax, v, eta, z, omega, rho, quad
        v_old, z_old = v, z
        v = update_v(ax, eta, y, b, rho)
        rest = None
        if g_z is not None:
            d = x - omega
            z = rho / (2.0 + rho) * d
            rest = (2.0 * rho / (2.0 + rho)) * (g_z @ d)  # rho G_Z (x - z - omega)
        x = update_x(model, ax, v, eta, field=field, x0=x, reg=reg, rho=rho, quad=quad,
                     adjoint=adjoint, rest=rest)
        ax = forward(x)
        eta = update_dual(eta, v, ax)
        if g_z is not None:
            omega = omega + z - x
        if k % 10 == 0:  # the only iterations whose residuals update_rho reads
            primal = float(np.linalg.norm(ax - v))
            back = adjoint(v - v_old)
            if g_z is not None:
                u = x - z
                primal = float(np.hypot(primal, np.sqrt(max(real_dot(u, g_z @ u), 0.0))))
                back = back + g_z @ (z - z_old)
            dual = float(np.linalg.norm(rho * back))
            new_rho = update_rho(rho, primal, dual, k)
            if new_rho != rho:
                rho, quad = new_rho, quad_form(model, new_rho, field)
        return x

    return iterate(step, x0.values, n_iters, RegularizedObjective(obj, reg).cost, x_true)
