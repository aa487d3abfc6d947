"""Reference implementations that tests compare the library against."""

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from poisson_pr.numerics import real_dot
from poisson_pr.objectives import HuberTV, psi, psi_dot
from poisson_pr.operators import FieldTag, project_field, realify


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
