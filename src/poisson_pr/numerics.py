"""Shared numerical kernels: power method, CG, a cubic's largest root, LBFGS."""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray


class DegenerateIterateError(RuntimeError, ValueError):
    """Raised when a step is undefined at the current iterate; a ValueError
    too, since it names a value outside a function's domain."""


def real_dot(a: NDArray, b: NDArray) -> float:
    """Real inner product Re<a, b>, the one relevant for descent directions."""
    return float(np.real(np.vdot(a, b)))


# the power method tests every POWER_CHECK_EVERY-th iterate against the one
# before it and stops once they differ by at most POWER_SETTLED_TOL in norm:
# a unit vector settled to rounding moves by about sqrt(n) ulp per step
# (2e-15 at n = 256, 7e-15 at n = 4096); the test is sparse so that it costs
# nothing beside the small dense Gram products
POWER_SETTLED_TOL = 1e-14
POWER_CHECK_EVERY = 8


def power_method(
    op: Callable[[NDArray], NDArray],
    n: int,
    iters: int = 200,
    seed: int = 0,
) -> tuple[float, NDArray]:
    """Leading eigenpair of a Hermitian PSD operator given as a callable.

    Returns (eigenvalue, unit-norm eigenvector). `iters` is a cap: the
    iteration stops at the first k, a multiple of POWER_CHECK_EVERY, where
    the iterate moved by at most POWER_SETTLED_TOL, and its result is then
    bit-identical to that of `iters=k`. One product per iteration, k + 1 in
    all: op(v) gives both the next iterate and, for the last v, the Rayleigh
    quotient, which is non-decreasing across iterations for PSD operators.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    if iters <= 0:
        return 0.0, v
    w = op(v)
    for k in range(1, iters + 1):
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, v
        prev, v = v, w / nw
        w = op(v)
        if k % POWER_CHECK_EVERY == 0 and np.linalg.norm(v - prev) <= POWER_SETTLED_TOL:
            break
    return real_dot(v, w), v


def cg_solve(
    op: Callable[[NDArray], NDArray],
    rhs: NDArray,
    iters: int = 30,
    tol: float = 1e-9,
    precond: Callable[[NDArray], NDArray] | None = None,
) -> NDArray:
    """Preconditioned conjugate gradient for Hermitian positive-semidefinite
    `op`, `precond` z -> M^{-1} z for a Hermitian positive-semidefinite M^{-1},
    or None for plain CG.

    Starts from x = 0 (residual rhs); stops when the unpreconditioned
    residual meets ||r|| <= tol ||rhs|| or after `iters` iterations, one
    product each. Exact in <= N steps in exact arithmetic. Without a
    preconditioner r'z is r'r, and the arithmetic is plain CG's.
    """
    x = np.zeros_like(rhs)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return x
    r = rhs
    p = z = r if precond is None else precond(r)
    rz = real_dot(r, z)
    rs = rz if precond is None else real_dot(r, r)
    for _ in range(iters):
        if np.sqrt(rs) <= tol * rhs_norm:
            break
        ap = op(p)
        denom = real_dot(p, ap)
        if denom <= 0.0:
            break  # operator numerically indefinite along p
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        z = r if precond is None else precond(r)
        rz_new = real_dot(r, z)
        rs = rz_new if precond is None else real_dot(r, r)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def cubic_largest_root(c3: float, c2: NDArray, c1: NDArray, c0: NDArray) -> NDArray:
    """The largest real root of c3 m^3 + c2 m^2 + c1 m + c0 for a nonzero scalar
    c3 and 1-D arrays c2, c1, c0, one per row.

    Cardano where one root is real, the trigonometric form's largest where
    three are, then two Newton sweeps on the original cubic. A repeated root
    keeps its closed form, the larger of the simple and the double root, where
    the generic forms cancel catastrophically and Newton would divide rounding
    noise by a vanishing derivative. A row whose root size, the largest of
    |c2/c3|, |c1/c3|^(1/2) and |c0/c3|^(1/3), exceeds 2^100 is solved for
    m / 2^e, 2^e about that size, by exact power-of-two coefficients, so its
    p^3 and q^2 stay finite; other rows are solved as they are. Cubes are
    products: numpy's `power` takes a slow scalar path for negative bases,
    and c2 <= 0 in ADMM's cubic.
    """
    lim = abs(c3) * 2.0**100
    huge = np.flatnonzero((np.abs(c2) > lim) | (np.abs(c1) > lim * 2.0**100)
                          | (np.abs(c0) > lim * 2.0**200))
    if huge.size:
        a2, a1, a0 = (np.abs(c[huge] / c3) for c in (c2, c1, c0))
        e = np.frexp(np.maximum.reduce([a2, np.sqrt(a1), np.cbrt(a0)]))[1]
        c2, c1, c0 = (np.array(c, float) for c in (c2, c1, c0))
        for k, c in enumerate((c2, c1, c0), 1):
            c[huge] = np.ldexp(c[huge], -k * e)
    # depressed cubic z^3 + p z + q with m = z - c2/(3 c3)
    shift = c2 / (3.0 * c3)
    p = (3.0 * c3 * c1 - c2 * c2) / (3.0 * c3 * c3)
    q = ((2.0 * c2 * c2 * c2 - 9.0 * c3 * c2 * c1 + 27.0 * c3 * c3 * c0)
         / (27.0 * c3 * c3 * c3))
    p3 = p * p * p
    neg4p3 = -4.0 * p3
    q2 = 27.0 * q * q
    disc = neg4p3 - q2
    # |disc| small against both terms needs p <= 0, where neg4p3 = |4 p^3|; an
    # overflowed discriminant (inf <= 1e-12 inf) says nothing about the roots
    repeated = np.isfinite(disc) & (np.abs(disc) <= 1e-12 * np.maximum(neg4p3, q2))

    hq = q / 2.0
    s = np.sqrt(np.maximum(hq * hq + p3 / 27.0, 0.0))
    z = np.cbrt(-hq + s) + np.cbrt(-hq - s)
    three = np.flatnonzero((disc > 0) & ~repeated)
    if three.size:
        pm = p[three]
        r = 2.0 * np.sqrt(-pm / 3.0)
        z[three] = r * np.cos(np.arccos(np.clip(3.0 * q[three] / (pm * r), -1.0, 1.0)) / 3.0)
    root = z - shift
    for _ in range(2):
        f = ((c3 * root + c2) * root + c1) * root + c0
        df = (3.0 * c3 * root + 2.0 * c2) * root + c1
        root = root - np.divide(f, df, out=np.zeros_like(f), where=df != 0)
    rep = np.flatnonzero(repeated)
    if rep.size:
        pz, qz = p[rep], q[rep]
        zero = (np.abs(pz) < 1e-300) & (np.abs(qz) < 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            simple = np.where(zero, 0.0, 3.0 * qz / pz)
        root[rep] = np.maximum(simple, -simple / 2.0) - shift[rep]
    if huge.size:
        root[huge] = np.ldexp(root[huge], e)
    return root


# LBFGS: stored (s, y) pairs; Wolfe sufficient-decrease and curvature
# constants and the trial budget of one line search
LBFGS_MEMORY = 10
WOLFE_C1, WOLFE_C2, WOLFE_MAX_EVALS = 1e-4, 0.9, 25


def _wolfe_line_search(
    fg: Callable[[NDArray], tuple[float, NDArray]],
    x: NDArray,
    f0: float,
    g0: NDArray,
    p: NDArray,
) -> tuple[float, float, NDArray]:
    """Backtracking/expanding line search satisfying the weak Wolfe conditions
    with constants WOLFE_C1 and WOLFE_C2.

    Returns (t, f, g) with (f, g) = fg(x + t p); when WOLFE_MAX_EVALS trials
    find no Wolfe point, the last trial is returned, and `lbfgs_minimize`
    takes it only where its cost is below f0 or non-finite.
    """
    d0 = real_dot(g0, p)
    lo, hi = 0.0, np.inf
    t = 1.0
    for evals in range(1, WOLFE_MAX_EVALS + 1):
        f_t, g_t = fg(x + t * p)
        d_t = real_dot(g_t, p)
        if f_t > f0 + WOLFE_C1 * t * d0:
            hi = t
        elif d_t < WOLFE_C2 * d0:
            lo = t
        else:
            # secant refinement toward the line-critical point; exact for
            # quadratics, so quadratic objectives converge in ~N iterations
            if d_t != d0:
                t_star = t * d0 / (d0 - d_t)
                if t_star > 0.0 and np.isfinite(t_star):
                    f_s, g_s = fg(x + t_star * p)
                    if f_s <= f_t:
                        return t_star, f_s, g_s
            return t, f_t, g_t
        if evals == WOLFE_MAX_EVALS:
            break
        t = 2.0 * lo if np.isinf(hi) else 0.5 * (lo + hi)
    return t, f_t, g_t


def lbfgs_minimize(
    fg: Callable[[NDArray], tuple[float, NDArray]],
    x0: NDArray,
) -> Iterator[tuple[NDArray, float]]:
    """LBFGS with the standard two-loop recursion over the last LBFGS_MEMORY
    pairs and a weak Wolfe search.

    A generator: each `next` takes one step and yields the new iterate and its
    cost. `fg` returns (cost, gradient); complex iterates use the real inner
    product, so gradients may be Wirtinger ascent directions. A step from a
    non-finite cost or a zero gradient, the start's included, raises
    DegenerateIterateError.

    A search that ends at a finite cost not below the current one is a stall:
    LBFGS clears its pairs, when it holds any, and searches once more along
    -g (the restart of L-BFGS-B, Byrd et al. 1995). Where that search stalls
    too, the cost has settled to rounding: this `next` and every later one
    yield the current (x, f), the same array, and call `fg` no more.
    """
    x = x0.copy()
    f, g = fg(x)
    # the last LBFGS_MEMORY pairs (s, y, real_dot(y, s)), each dot taken once
    pairs: deque[tuple[NDArray, NDArray, float]] = deque(maxlen=LBFGS_MEMORY)
    while True:
        if not np.isfinite(f):
            raise DegenerateIterateError("non-finite cost")
        if np.linalg.norm(g) == 0.0:
            raise DegenerateIterateError("zero gradient")
        q = g.copy()
        alphas = []
        for s, y, ys in reversed(pairs):
            a = real_dot(s, q) / ys
            alphas.append(a)
            q = q - a * y
        if pairs:
            _, y, ys = pairs[-1]
            q = q * (ys / real_dot(y, y))
        for (s, y, ys), a in zip(pairs, reversed(alphas)):
            b = real_dot(y, q) / ys
            q = q + (a - b) * s
        p = -q
        if real_dot(g, p) >= 0.0:
            p = -g  # fall back to steepest descent
        t, f_t, g_new = _wolfe_line_search(fg, x, f, g, p)
        # a stall: f <= f_t < inf, false for a NaN or infinite trial cost,
        # which is taken and ends the run as before
        if f <= f_t < np.inf and pairs:
            pairs.clear()
            p = -g
            t, f_t, g_new = _wolfe_line_search(fg, x, f, g, p)
        if f <= f_t < np.inf:
            while True:
                yield x, f
        s_vec = t * p
        y_vec = g_new - g
        ys = real_dot(y_vec, s_vec)
        if ys > 1e-14:  # keep positive-curvature pairs only
            pairs.append((s_vec, y_vec, ys))
        x = x + s_vec
        f, g = f_t, g_new
        yield x, f
