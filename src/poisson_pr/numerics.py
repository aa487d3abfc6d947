"""Shared numerical kernels: Lanczos, CG, a cubic's largest root, LBFGS."""

from __future__ import annotations

import math
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


# Lanczos: the Ritz residual bound at which the top pair counts as converged,
# relative to its Ritz value, and the steps between two tests of it; a test
# solves the step's tridiagonal matrix in O(steps) scalar operations
LANCZOS_TOL = 1e-14
LANCZOS_CHECK_EVERY = 4


def _lanczos_vectors(op, q, alpha, beta):
    """The Lanczos vectors q_1 = q, q_2, ... of the Hermitian `op` (three-term
    recurrence, no reorthogonalization). Making q_{j+1} takes one product and
    appends alpha_j and beta_j to `alpha` and `beta`; the generator ends after
    beta_j = 0. The same calls give the same vectors, bit for bit."""
    q_prev = None
    while True:
        yield q
        w = op(q)
        alpha.append(real_dot(q, w))
        w = w - alpha[-1] * q
        if q_prev is not None:
            w = w - beta[-1] * q_prev
        beta.append(float(np.linalg.norm(w)))
        if beta[-1] == 0.0:
            return
        q_prev, q = q, w / beta[-1]


def _tridiagonal_top(alpha, beta, lower):
    """Largest eigenvalue and its unit eigenvector of the symmetric
    tridiagonal T with diagonal `alpha` and positive off-diagonal `beta`,
    given a lower bound on the eigenvalue; no LAPACK routine is called.

    The eigenvalue is the largest root of the first pivot e_1(u) of uI - T
    eliminated from the bottom, e_k = u - alpha_k, e_j = u - alpha_j -
    beta_j^2 / e_{j+1}. Above the largest eigenvalue of T without its first
    row and column every other pivot is positive, and e_1 is increasing and
    concave there, so Newton from below climbs to the root; a point where
    another pivot is not positive lies below it, and the bracket up to
    Gershgorin's bound is bisected where Newton cannot step.

    The eigenvector is formed by products alone, outward from its largest
    entry s_r = 1, where every ratio is below one: upward by the pivots d_j
    of uI - T eliminated from the top, s_j = s_{j+1} beta_j / d_j, and
    downward by s_{j+1} = s_j beta_j / e_{j+1} (a twisted factorization,
    Dhillon & Parlett 2004). Its entries are positive, and the small last
    ones, which give the Ritz residual, are accurate relative to their size.
    """
    if not beta:
        return alpha[0], [1.0]
    beta2 = [b * b for b in beta]
    tail = list(zip(reversed(alpha[1:-1]), reversed(beta2[1:])))

    def sweep(u):
        """The pivots e_k, ..., e_2 at u and the derivative of e_2, or None
        where one of them is not positive."""
        e, de = u - alpha[-1], 1.0
        pivots = [e]
        for a, b2 in tail:
            if e <= 0.0:
                return None
            r = b2 / e
            de = 1.0 + r * de / e
            e = u - a - r
            pivots.append(e)
        return (pivots, de) if e > 0.0 else None

    # Gershgorin's bound, raised by a margin so that every pivot there
    # stays at least the off-diagonal above it, rounding included
    hi = max(a + l + r for a, l, r in zip(alpha, [0.0, *beta], [*beta, 0.0]))
    hi += 1e-12 * max(abs(hi), *map(abs, alpha))
    lo = u = min(max(lower, *alpha), hi)
    best = None
    for _ in range(200):
        swept = sweep(u)
        if swept is None:  # below the largest root of e_1
            lo, u = u, 0.5 * (u + hi)
            continue
        pivots, de = best = swept
        r = beta2[0] / pivots[-1]
        e1 = u - alpha[0] - r
        if e1 <= 0.0:
            lo = u
        else:
            hi = u
        step = -e1 / (1.0 + r * de / pivots[-1])
        nxt = u + step if lo < u + step < hi else 0.5 * (lo + hi)
        if e1 == 0.0 or abs(step) <= 4e-16 * abs(u) or nxt == u:
            break
        u = nxt
    else:
        u, best = hi, sweep(hi)
    e = best[0][::-1]  # e_2, ..., e_k
    # the largest entry of the vector the e alone give, from s_1 = 1
    z, peak, r = 1.0, 1.0, 0
    for j, (b, ej) in enumerate(zip(beta, e), 1):
        z *= b / ej
        if z > peak:
            peak, r = z, j
    s = [1.0]
    d = u - alpha[0]
    up = []
    for j in range(r):
        up.append(beta[j] / d)
        d = u - alpha[j + 1] - beta2[j] / d
    for ratio in reversed(up):
        s.append(s[-1] * ratio)
    s.reverse()
    for b, ej in zip(beta[r:], e[r:]):
        s.append(s[-1] * b / ej)
    norm = math.sqrt(sum(x * x for x in s))
    return u, [x / norm for x in s]


def lanczos_top(
    op: Callable[[NDArray], NDArray],
    n: int,
    max_steps: int = 300,
    seed: int = 0,
) -> tuple[float, NDArray]:
    """Leading eigenpair of a Hermitian PSD operator given as a callable, by
    Lanczos from a random complex unit start (Paige 1971; Golub & Van Loan,
    Matrix Computations, ch. 10).

    Returns (Ritz value, unit Ritz vector), the vector's phase set so that
    vdot(v, start) is real and positive, the power method's limit. The first
    pass runs at most `max_steps` steps of the three-term recurrence, one
    product each, and keeps only its coefficients. Every
    LANCZOS_CHECK_EVERY-th step, and at the cap, the top pair (theta, s) of
    the step's tridiagonal T_k is found (`_tridiagonal_top`), and the pass
    stops once the Ritz residual ||op(v) - theta v|| = beta_k s_k is at most
    LANCZOS_TOL theta, or at once where beta_k alone is (an invariant
    subspace). The second pass reruns the recurrence, bit for bit, to sum v
    = sum_j s_j q_j: 2k - 1 products in all, and no stored basis. Without
    reorthogonalization a converged Ritz value grows copies from rounding;
    the test stops near where they would start. A zero operator, a start
    that is an eigenvector and `max_steps` <= 0 return the start itself.
    """
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    if max_steps <= 0:
        return 0.0, start
    alpha: list[float] = []
    beta: list[float] = []
    steps = _lanczos_vectors(op, start, alpha, beta)
    next(steps)
    theta = top = 0.0
    for k in range(1, max_steps + 1):
        next(steps, None)
        top = max(top, alpha[-1])  # at most theta
        invariant = beta[-1] <= LANCZOS_TOL * top
        if invariant or k % LANCZOS_CHECK_EVERY == 0 or k == max_steps:
            theta, s = _tridiagonal_top(alpha, beta[:-1], theta)
            if invariant or beta[-1] * s[-1] <= LANCZOS_TOL * theta:
                break
    if k == 1:
        return theta, start
    v = np.zeros(n, complex)
    for sj, q in zip(s, _lanczos_vectors(op, start, [], [])):
        v += sj * q
    v /= np.linalg.norm(v)
    c = np.vdot(v, start)
    return theta, v * (c / abs(c)) if c != 0 else v


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
