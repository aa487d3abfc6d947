"""ADMM for the Poisson ML problem with the v = Ax splitting: closed-form
phase/magnitude updates, a least-squares x update and dual ascent, at a
fixed penalty."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .init_eval import RunState
from .mm import minimize_quad_plus_huber
# cg_solve, and power_method, the Lanczos kernel under its former name: only
# for the benchmark's tracer, whose patch points keep that name until the
# benchmark change (ROADMAP item 7)
from .numerics import cg_solve, cubic_largest_root  # noqa: F401
from .numerics import lanczos_top as power_method  # noqa: F401
from .objectives import HuberTV, PoissonObjective, RegularizedObjective
from .operators import FieldTag, ForwardModel, SignalVector, quad_form, realify
from .wf import DegenerateIterateError, iterate


@dataclass(frozen=True)
class MagnitudeCubic:
    """What `update_v_magnitude_bpos` needs besides t, set up once for the
    counts y, background b >= 0 and penalty rho of a vector of `shape`: the
    rows P with y > 0, where the cubic is solved, and its coefficients
    there that t does not enter, 2b - 2y + rho b and the constant's -rho b."""

    rho: float
    shape: tuple[int, ...]
    pos: NDArray
    linear: NDArray
    constant: NDArray

    @classmethod
    def of(cls, y, b, rho: float, shape: tuple[int, ...]) -> MagnitudeCubic:
        """y and b broadcast to `shape`; a ValueError where some b < 0."""
        y = np.broadcast_to(np.asarray(y, float), shape)
        b = np.broadcast_to(np.asarray(b, float), shape)
        if np.any(b < 0):
            raise ValueError("update_v_magnitude_bpos requires b >= 0")
        pos = np.flatnonzero(y > 0)
        yp, bp = y[pos], b[pos]
        return cls(rho, shape, pos, 2.0 * bp - 2.0 * yp + rho * bp, -rho * bp)


def update_v_magnitude_bpos(t, y, b=None, rho: float | None = None):
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

    `y` may instead be the `MagnitudeCubic` of (y, b, rho) for t's shape,
    which a solver sets up once for all its updates; b and rho are then
    its own, and the result is the same bit for bit.
    """
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, float))
    cubic = y if isinstance(y, MagnitudeCubic) else MagnitudeCubic.of(y, b, rho, t.shape)
    if cubic.shape != t.shape:
        raise ValueError(f"magnitude update set up for shape {cubic.shape}, t has {t.shape}")
    rho = cubic.rho
    out = rho * t / (2.0 + rho)
    pos = cubic.pos
    if pos.size:
        tp = t[pos]
        m = cubic_largest_root(2.0 + rho, -rho * tp, cubic.linear, cubic.constant * tp)
        if not np.all(np.isfinite(m)):
            raise DegenerateIterateError("non-finite cost")
        if np.any(m < 0):
            raise DegenerateIterateError("magnitude update found no nonnegative root")
        out[pos] = m
    return float(out[0]) if scalar else out


def update_v(ax: NDArray, eta: NDArray, y, b=None, rho: float | None = None) -> NDArray:
    """Split-variable update v = m sign(u), u = A x - eta, with sign(0) := 1
    and m = `update_v_magnitude_bpos` at t = |u| (y a `MagnitudeCubic`, or
    the counts with b and rho).

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

    `quad` is that Gram where the caller has formed it, and `adjoint` takes
    the place of `model.adjoint`. Where the split keeps only some rows R
    explicit, ax, v and eta are those rows', `adjoint` is A_R' and `rest`
    the gradient's part from the other rows; on a real field `adjoint` may
    give Re(A' r) alone (from the half spectrum), whose real part the update
    takes anyway."""
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
    """ADMM outer loop at the fixed penalty rho0: v (`update_v`: one modulus
    of A x - eta for both the phase and the magnitude, whose cubic's
    coefficients are set up once per run as a `MagnitudeCubic`), x, dual.
    The x update is MM's step on `quad_form(model, rho0)`, rho0 times the
    model's remembered A'A, formed once per run; a singular A'A ends the run
    `terminated`.

    The split is kept explicitly on the rows R alone. On a zero count the
    magnitude update is linear, v_Z = c (A_Z x - eta_Z) with c = rho/(2+rho),
    so from eta = 0 the dual stays in the range of A_Z: eta_Z = A_Z omega and
    v_Z = A_Z z, with z = c (x - omega) and omega <- omega + z - x_new. The
    zero-count share of the x-update gradient is then a product with
    G_Z = A_Z'A_Z (`PoissonObjective.zero_count_split`):
    rho G_Z (x - z - omega) = rho (1 - c) G_Z (x - omega), formed in the
    second way, which cancels nothing as c nears 1. On a `DenseModel` R = P,
    the positive counts, and A_P x is `positive_forward`'s, which the trace
    cost reads too: an iteration makes no `apply`, no `adjoint` and no
    M-length array. On other models R is every row and Z is empty, since
    the cubic of the magnitude update is not affine in y. Where the
    objective folds onto a `HalfSpectrum` (a real field), v, eta, y and b
    stay per row, but A x is `extend` of the half product `forward(x)`,
    which the trace cost reads too, and the x update's Re(A'r) is
    `adjoint(fold(r) / c, half=True)`: an iteration makes one half `apply`,
    one half `adjoint` and no full-row product."""
    model, field = obj.model, obj.field
    split = obj.zero_count_split()
    half = obj.half
    if split is not None:
        a_p, g_z = split
        y, b, forward = obj.y[obj.positive], obj.b[obj.positive], obj.positive_forward

        def adjoint(r):
            # conj(A_P' r) = conj(r) A_P, which conjugates no matrix
            return (r.conj() @ a_p).conj()
    elif half is None:
        y, b, g_z, forward, adjoint = obj.y, obj.b, None, obj.forward, model.adjoint
    else:
        y, b, g_z = obj.y, obj.b, None
        inv_c = 1.0 / half.c  # exact, c being 1 or 2

        def forward(x):
            return half.extend(obj.forward(x))

        def adjoint(r):
            return model.adjoint(half.fold(r) * inv_c, half=True)
    rho = check_rho0(rho0)
    cubic = MagnitudeCubic.of(y, b, rho, y.shape)
    ax = forward(x0.values)
    v = ax.copy()
    eta = v - ax  # zero by initialization
    omega = np.zeros(model.cols, dtype=complex)  # v_Z = A_Z x0, eta_Z = 0
    quad = quad_form(model, rho, field)

    def step(k, x, warnings):
        nonlocal ax, v, eta, omega
        v = update_v(ax, eta, cubic)
        rest = None
        if g_z is not None:
            d = x - omega
            z = rho / (2.0 + rho) * d
            # rho G_Z (x - z - omega); a real G_Z takes the real d of a real
            # field, not a complex cast of itself
            rest = (2.0 * rho / (2.0 + rho)) * (g_z @ (d.real if field.is_real else d))
        x = update_x(model, ax, v, eta, field=field, x0=x, reg=reg, rho=rho, quad=quad,
                     adjoint=adjoint, rest=rest)
        ax = forward(x)
        eta = update_dual(eta, v, ax)
        if g_z is not None:
            omega = omega + z - x
        return x

    return iterate(step, x0.values, n_iters, RegularizedObjective(obj, reg).cost, x_true)
