"""Reference implementations that tests compare the library against, and
the instances that more than one test module solves."""

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from poisson_pr.init_eval import finalize_init, initialize, scale_fit
from poisson_pr.numerics import DegenerateIterateError, real_dot
from poisson_pr.objectives import HuberTV, PoissonObjective
from poisson_pr.operators import (
    DIRECT_MAX_COLS,
    CanonicalDftModel,
    FieldTag,
    MaskedDftModel,
    calibrate_scale,
    in_field,
    make_masks,
    project_field,
    quad_form,
    realify,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks, disk, random_complex


def psi(v, y, b):
    """Marginal Poisson negative log-likelihood (|v|^2+b) - y log(|v|^2+b).

    0 log 0 is treated as 0: a zero-mean Poisson draw is always 0.
    """
    v, y, b = np.asarray(v), np.asarray(y, float), np.asarray(b, float)
    rate = np.abs(v) ** 2 + b
    if np.any((rate == 0) & (y > 0)):
        raise DegenerateIterateError("psi undefined: zero rate with positive count")
    out = rate - y * np.log(np.where(rate > 0, rate, 1.0))
    return out if out.ndim else float(out)


def psi_dot(v, y, b):
    """Ascent direction of psi: 2v(1 - y/(|v|^2 + b))."""
    v, y, b = np.asarray(v, complex), np.asarray(y, float), np.asarray(b, float)
    rate = np.abs(v) ** 2 + b
    if np.any(rate == 0):
        raise DegenerateIterateError("psi_dot undefined at |v|^2 + b = 0")
    out = 2.0 * v * (1.0 - y / rate)
    return out if out.ndim else complex(out)


def psi_ddot(v, y, b):
    """Second derivative sign(v) (2 + 2y(|v|^2 - b)/(|v|^2 + b)^2).

    For b > 0 it is bounded above by 2 + y/(4b); the maximum is attained at
    |v|^2 = 3b. (The lower end can exceed that magnitude: at v = 0 the value
    is 2 - 2y/b.)
    """
    v, y, b = np.asarray(v), np.asarray(y, float), np.asarray(b, float)
    av2 = np.abs(v) ** 2
    rate = av2 + b
    if np.any(rate == 0):
        raise ValueError("psi_ddot undefined at |v|^2 + b = 0")
    sign = np.where(np.real(v) < 0, -1.0, 1.0)
    out = sign * (2.0 + 2.0 * y * (av2 - b) / rate**2)
    return out if out.ndim else float(out)


def curvature_optimal_numeric(
    s: float, y: float, b: float, grid_points: int = 4001, range_mult: float = 1.0
) -> float:
    """Numerical supremum of the secant-curvature ratio over a fixed r grid,
    the oracle for MM's closed-form curvatures."""
    if y == 0.0:
        return 2.0
    s = float(np.abs(s))
    radius = range_mult * max(20.0, 4.0 * s, 8.0 * np.sqrt(b))
    r = np.linspace(-radius, radius, grid_points)
    r = r[np.abs(r - s) >= 1e-8]
    num = 2.0 * (psi(r, y, b) - psi(s, y, b) - psi_dot(s, y, b).real * (r - s))
    return float(np.max(num / (r - s) ** 2))


def finite_diff_grad(
    cost: Callable[[NDArray], float], x: NDArray, eps: float = 1e-6
) -> NDArray:
    """Central-difference gradient oracle.

    For complex inputs, differences are taken along the real and imaginary
    axes separately, matching the ascent-direction convention: the returned
    vector g satisfies Re<g, d> ~ directional derivative along d.
    """
    g = np.zeros_like(x, dtype=complex if np.iscomplexobj(x) else float)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (cost(x + e) - cost(x - e)) / (2.0 * eps)
        if np.iscomplexobj(x):
            e[i] = 1j * eps
            g[i] += 1j * (cost(x + e) - cost(x - e)) / (2.0 * eps)
    return g


def majorizer_value(ctx, x: NDArray) -> float:
    """q(x; x_k) = f(x_k) + Re<dx, grad> + 1/2 dx' A'WA dx for an
    `mm.MajorizerContext` ctx, from the model's products rather than the
    Gram."""
    dx = x - ctx.x_k
    ad = ctx.obj.model.apply_linear(dx)
    quad = 0.5 * float(np.sum(ctx.w * np.abs(ad) ** 2))
    return ctx.obj.cost(ctx.x_k) + real_dot(ctx.grad, dx) + quad


def minimize_quad_plus_huber_by_operator(
    quad_op: Callable[[NDArray], NDArray],
    lin: NDArray,
    x0: NDArray,
    reg: HuberTV,
    field: FieldTag,
    inner_iters: int,
    tol: float,
) -> NDArray:
    """The operator-based nonlinear CG for 1/2 x'Qx - Re<lin, x> + beta R(x)
    in complex arithmetic, Q given as z -> Qz, the Huber gradient and weights
    from `HuberTV`: the oracle for `mm.minimize_quad_plus_huber`."""
    beta = reg.beta

    def grad_fn(z):
        g = quad_op(z) - lin
        if beta > 0:
            g = g + reg.gradient(z)
        return realify(g, field)

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


def admm_full_rows(obj, x0: NDArray, n_iters: int, rho0: float = 8.0,
                   reg: HuberTV | None = None) -> tuple[NDArray, NDArray]:
    """ADMM at the fixed penalty rho0 with the split variable v and the dual
    eta on every row: each iteration one `apply` and one `adjoint` in the
    x-update, the penalty's Gram formed in every x-update. The oracle for
    `admm.run_admm`, which keeps the zero-count rows in N-space. Returns
    (the cost of each iterate, the last iterate)."""
    from poisson_pr.admm import update_dual, update_v, update_x
    from poisson_pr.objectives import RegularizedObjective

    model, cost = obj.model, RegularizedObjective(obj, reg).cost
    x = in_field(x0, obj.field)
    ax = model.apply(x)
    v, eta = ax.copy(), np.zeros_like(ax)
    costs = []
    for _ in range(n_iters):
        v = update_v(ax, eta, obj.y, obj.b, rho0)
        x = update_x(model, ax, v, eta, obj.field, x, reg, rho0)
        ax = model.apply(x)
        eta = update_dual(eta, v, ax)
        costs.append(cost(x))
    return np.array(costs), x


def random_unit_start(n: int, seed: int) -> NDArray:
    """The random complex unit vector `numerics.lanczos_top` starts from."""
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    return v / np.linalg.norm(v)


def power_iterate(op: Callable[[NDArray], NDArray], n: int, iters: int,
                  seed: int) -> NDArray:
    """The power method's unit iterate after `iters` products from
    `random_unit_start(n, seed)`; for a simple top eigenvalue it tends to the
    eigenvector whose inner product with the start is real and positive."""
    v = random_unit_start(n, seed)
    for _ in range(iters):
        w = op(v)
        v = w / np.linalg.norm(w)
    return v


def power_initialize(model, y: NDArray, field: FieldTag, iters: int,
                     seed: int) -> NDArray:
    """`initialize` with the power method's iterate after `iters` products in
    place of the Lanczos vector."""
    q = quad_form(model, y / (y + 1.0), FieldTag.COMPLEX)
    v = power_iterate(lambda z: q @ z, model.cols, iters, seed)
    alpha, _ = scale_fit(model, y, v)
    return finalize_init(v, alpha, field)


def cg_plain(op: Callable[[NDArray], NDArray], rhs: NDArray, iters: int = 30,
             tol: float = 1e-9) -> NDArray:
    """Conjugate gradient without a preconditioner, from x = 0, stopping at
    ||r|| <= tol ||rhs|| or after `iters` products: the oracle, bit for bit,
    for `numerics.cg_solve` without `precond`."""
    x = np.zeros_like(rhs)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return x
    r, p = rhs, rhs.copy()
    rs = real_dot(r, r)
    for _ in range(iters):
        if np.sqrt(rs) <= tol * rhs_norm:
            break
        ap = op(p)
        denom = real_dot(p, ap)
        if denom <= 0.0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = real_dot(r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def fft_instance(kind, field=FieldTag.REAL_NONNEGATIVE):
    """(objective, x0) of a Poisson instance on an FFT model wider than
    DIRECT_MAX_COLS: masked DFTs of a 1D phantom (a random complex signal on
    the complex field), or the canonical DFT of a disk with a disk
    reference."""
    if kind == "masked":
        n = DIRECT_MAX_COLS + 8
        sig = random_complex(n, seed=0) if field is FieldTag.COMPLEX else blocks(n, seed=0)
        model = MaskedDftModel(make_masks(5, sig.n, seed=3), background=0.1)
    else:
        sig = disk(12, 8)
        model = CanonicalDftModel(sig.dims, disk(12, 8).values.real.reshape(12, 8),
                                  background=0.1)
    assert model.cols > DIRECT_MAX_COLS
    calibrate_scale(model, sig.values, 0.25)
    y = simulate_poisson(model, sig.values, 4).y
    x0 = initialize(model, y, field=field, iters=50, seed=0)
    return PoissonObjective(model, y, field=field), x0
