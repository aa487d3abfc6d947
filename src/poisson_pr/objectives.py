"""Poisson and Gaussian ML cost functions, Fisher marginals, and the
Huber-smoothed anisotropic TV regularizer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .numerics import DegenerateIterateError
from .operators import DenseModel, FieldTag, ForwardModel, _normal_gram, realify


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


def fisher_marginal_poisson(v, b):
    """Marginal Poisson Fisher information 4|v|^2/(|v|^2 + b)."""
    av2 = np.abs(np.asarray(v)) ** 2
    rate = av2 + np.asarray(b, float)
    return np.divide(4.0 * av2, rate, out=np.zeros_like(rate), where=rate > 0)


def fisher_marginal_gaussian(v, b):
    """Marginal Fisher information 16|v|^2(|v|^2 + b) for the Gaussian cost."""
    av2 = np.abs(np.asarray(v)) ** 2
    return 16.0 * av2 * (av2 + np.asarray(b, float))


class PoissonObjective:
    """Negative Poisson log-likelihood f(x) = sum_i psi((Ax)_i; y_i, b_i).

    On a `DenseModel` the cost and gradient are formed from A'A and the
    rows P = {y > 0}, s_P = A_P x: psi is exactly |s|^2 + b on a zero count,
    so f(x) = Re(x'(A'A)x) + sum b - y_P' log(|s_P|^2 + b_P) and
    grad f = 2(A'A)x - A_P'(2 y_P s_P / (|s_P|^2 + b_P)), with no M x N
    product (`split`). On the other models they come from A x and A'.
    On a real field x is real, and A'A is Re(A'A).
    """

    def __init__(self, model: ForwardModel, y: NDArray, field: FieldTag = FieldTag.COMPLEX):
        y = np.asarray(y, dtype=float)
        if y.shape != (model.rows,):
            raise ValueError(
                f"measurements have shape {y.shape}, model has {model.rows} rows"
            )
        self.model = model
        self.y = y
        self.b = model.background
        self.field = field
        self.positive = np.flatnonzero(y > 0)  # P, the rows with a positive count
        self._y_pos, self._b_pos = y[self.positive], self.b[self.positive]
        self._sum_b = float(np.sum(self.b))
        self._memo = None  # (copy of x, model.scale, read-only A x)
        self._split = None  # (model.memo(), A_P, A'A)
        self._pos_memo = None  # (copy of x, A_P, read-only A_P x)

    def forward(self, x: NDArray) -> NDArray:
        """model.apply(x), read-only. The last result is kept, keyed by a copy
        of x's values and by model.scale, so that the cost, gradient and step
        rules of one iterate share one forward product. The kept product is
        either `apply`'s or one handed to `remember`: WF's unclamped step
        moves it along the step as `A x - mu A grad`, which agrees with
        `apply` to rounding (within 1e-12 relative over 300 iterations)."""
        memo = self._memo
        if memo is not None and memo[1] == self.model.scale and _same(memo[0], x):
            return memo[2]
        return self.remember(x, self.model.apply(x))

    def remember(self, x: NDArray, ax: NDArray) -> NDArray:
        """Keep `ax`, made read-only, as `forward(x)` until the next miss or
        `remember`, keyed as `forward` keys it; for a point whose product the
        caller already holds. Returns `ax`."""
        ax.flags.writeable = False
        self._memo = (np.array(x, copy=True), self.model.scale, ax)
        return ax

    def split(self, a: NDArray | None = None) -> tuple[NDArray, NDArray] | None:
        """(A_P, A'A) on a `DenseModel`, None elsewhere. A_P is the rows P of
        `densify()` (or of `a`, where the caller has densified A), contiguous
        and read-only, kept in the model's `memo` for every objective with
        the same P; A'A is `_normal_gram`'s. Both are taken again when the
        memo is emptied (a new scale or matrix)."""
        if not isinstance(self.model, DenseModel):
            return None
        memo = self.model.memo()
        if self._split is None or self._split[0] is not memo:
            key = ("positive rows", self.positive.tobytes())
            if key not in memo:
                a = self.model.densify() if a is None else a
                memo[key] = a[self.positive]
                memo[key].flags.writeable = False
            self._split = (memo, memo[key], _normal_gram(self.model, self.field, a))
        return self._split[1:]

    def zero_count_split(self) -> tuple[NDArray, NDArray] | None:
        """(A_P, G_Z) on a `DenseModel`, None where `split` is: A_P is
        `split`'s, and G_Z = A_Z'A_Z, Z the rows with a zero count, is A'A
        minus A_P'A_P, so that no row of Z is taken. G_Z is complex on every
        field; on a real one its real part starts from `split`'s Re(A'A) and
        its imaginary part from Im(A'A) = Re(A)'Im(A) - Im(A)'Re(A). A is
        densified once for both."""
        if not isinstance(self.model, DenseModel):
            return None
        a = self.model.densify()
        split = self.split(a)
        if split is None:
            return None
        a_p, h = split
        if self.field.is_real:
            k = a.real.T @ a.imag
            h = h + 1j * (k - k.T)
        return a_p, h - a_p.conj().T @ a_p

    def positive_forward(self, x: NDArray) -> NDArray:
        """s_P = (A x)_P. On a `DenseModel` it is A_P x, read-only, the last
        one kept keyed by a copy of x and by A_P: a function of x alone, never
        read from `forward`'s memo, which WF moves along its step. Elsewhere
        it is `forward(x)[P]`."""
        split = self.split()
        if split is None:
            return self.forward(x)[self.positive]
        a_p = split[0]
        memo = self._pos_memo
        if memo is not None and memo[1] is a_p and _same(memo[0], x):
            return memo[2]
        s = a_p @ np.asarray(x, dtype=complex)
        s.flags.writeable = False
        self._pos_memo = (np.array(x, copy=True), a_p, s)
        return s

    def _positive_rates(self, x: NDArray, where: str) -> tuple[NDArray, NDArray]:
        """(s_P, |s_P|^2 + b_P); a zero rate on P leaves psi and its
        derivative (named by `where`) undefined."""
        s = self.positive_forward(x)
        rate = np.abs(s) ** 2 + self._b_pos
        if np.any(rate == 0):
            raise DegenerateIterateError(f"{where} undefined: zero rate with positive count")
        return s, rate

    def cost(self, x: NDArray) -> float:
        split = self.split()
        if split is None:
            return float(np.sum(psi(self.forward(x), self.y, self.b)))
        _, rate = self._positive_rates(x, "psi")
        h = split[1]
        x = np.asarray(x)
        if self.field.is_real:
            quad = x.real @ (h @ x.real)
        else:
            quad = np.vdot(x, h @ x).real
        return float(quad + self._sum_b - self._y_pos @ np.log(rate))

    def marginal_grad(self, v: NDArray) -> NDArray:
        return psi_dot(v, self.y, self.b)

    def gradient(self, x: NDArray, keep: NDArray | None = None) -> NDArray:
        """A' psi_dot(Ax), field-projected; rows outside the boolean mask
        `keep` contribute nothing. On a `DenseModel` it is
        2(A'A)x - A_P'(2 y_P s_P / (|s_P|^2 + b_P)) - A_D' psi_dot((Ax)_D),
        D the rows `keep` drops, (Ax)_D from `forward`; where `keep` drops
        none, the last term is not formed."""
        split = self.split()
        if split is None:
            mg = self.marginal_grad(self.forward(x))
            if keep is not None:
                mg = np.where(keep, mg, 0.0)
            return realify(self.model.adjoint(mg), self.field)
        a_p, h = split
        s, rate = self._positive_rates(x, "psi_dot")
        # conj(A_P' r) = conj(r) A_P, which conjugates no M x N array
        back = ((2.0 * self._y_pos / rate) * s).conj() @ a_p
        drop = np.flatnonzero(~keep) if keep is not None else ()
        if len(drop):
            mg = psi_dot(self.forward(x)[drop], self.y[drop], self.b[drop])
            back = back + mg.conj() @ self.model.densify()[drop]
        x = np.asarray(x)
        if self.field.is_real:
            return (2.0 * (h @ x.real) - back.real).astype(complex)
        return 2.0 * (h @ x) - back.conj()

    def fisher_diag(self, v: NDArray) -> NDArray:
        return fisher_marginal_poisson(v, self.b)


def _same(kept: NDArray, x) -> bool:
    """Whether x holds the values of the memo key `kept`."""
    x = np.asarray(x)
    return kept.dtype == x.dtype and kept.shape == x.shape and kept.tobytes() == x.tobytes()


class GaussianObjective(PoissonObjective):
    """Gaussian ML cost g(x) = sum_i (y_i - b_i - |(Ax)_i|^2)^2."""

    def cost(self, x: NDArray) -> float:
        r = self.y - self.b - np.abs(self.forward(x)) ** 2
        return float(np.sum(r * r))

    def marginal_grad(self, v: NDArray) -> NDArray:
        return 4.0 * (np.abs(v) ** 2 - self.y + self.b) * v

    def fisher_diag(self, v: NDArray) -> NDArray:
        return fisher_marginal_gaussian(v, self.b)

    def split(self, a: NDArray | None = None) -> None:
        """None: the Gaussian residual is nonzero on every row, so its cost
        and gradient take A x and A' on every model."""
        return None


def huber(t, alpha: float):
    """Huber function of the modulus: |t|^2/2 below the knee, affine above."""
    if alpha <= 0:
        raise ValueError("huber knee alpha must be positive")
    at = np.abs(np.asarray(t))
    out = np.where(at < alpha, 0.5 * at**2, alpha * at - 0.5 * alpha**2)
    return out if out.ndim else float(out)


def huber_weight(t, alpha: float):
    """Quadratic-majorizer weight min(alpha/|t|, 1), with value 1 at t = 0."""
    if alpha <= 0:
        raise ValueError("huber knee alpha must be positive")
    out = alpha / np.maximum(np.abs(t), alpha)
    return out if np.ndim(out) else float(out)


class DiffOp:
    """Anisotropic finite-difference matrix T.

    1D chain differences for vectors; stacked horizontal and vertical first
    differences for images. Constant signals map to zero.
    """

    def __init__(self, n: int, dims: tuple[int, int] | None = None):
        self.n = n
        self.dims = dims
        self._dense = None
        if dims is None:
            self.k = n - 1
        else:
            h, w = dims
            if h * w != n:
                raise ValueError("dims inconsistent with signal length")
            self.k = h * (w - 1) + (h - 1) * w

    def apply(self, x: NDArray) -> NDArray:
        x = np.asarray(x)
        if self.dims is None:
            return x[1:] - x[:-1]
        h, w = self.dims
        img = x.reshape(h, w)
        dh = (img[:, 1:] - img[:, :-1]).ravel()
        dv = (img[1:, :] - img[:-1, :]).ravel()
        return np.concatenate([dh, dv])

    def adjoint(self, z: NDArray) -> NDArray:
        z = np.asarray(z)
        if self.dims is None:
            out = np.zeros(self.n, dtype=z.dtype)
            out[1:] += z
            out[:-1] -= z
            return out
        h, w = self.dims
        kh = h * (w - 1)
        zh = z[:kh].reshape(h, w - 1)
        zv = z[kh:].reshape(h - 1, w)
        out = np.zeros((h, w), dtype=z.dtype)
        out[:, 1:] += zh
        out[:, :-1] -= zh
        out[1:, :] += zv
        out[:-1, :] -= zv
        return out.ravel()

    def densify(self) -> NDArray:
        """T as a (k, n) array, applied column by column on the first call
        and kept, read-only."""
        if self._dense is None:
            t = np.stack([self.apply(e) for e in np.eye(self.n)], axis=1)
            t.flags.writeable = False
            self._dense = t
        return self._dense


@dataclass
class HuberTV:
    """Huber-smoothed anisotropic TV: R(x) = 1' h.(Tx; alpha), weighted by beta.

    Its quadratic majorizer at x has the diagonal weights D = min(alpha/|Tx|, 1):
    the penalty's gradient is beta T'(D Tx) (`majorize`) and its curvature
    along a direction p is beta (Tp)' D (Tp) (`curvature`), the two terms
    every solver adds to its data term; the majorizer's Hessian beta T'DT
    as a dense matrix (`curvature_matrix`) and the penalty's own Hessian
    (`hessian_matrix`) are what the dense inner solve adds.
    """

    beta: float
    alpha: float
    diff_op: DiffOp

    def __post_init__(self):
        if not 0.0 <= self.beta < np.inf:
            raise ValueError("regularization strength beta must be finite and nonnegative")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError("Huber knee alpha must be finite and positive")

    def value(self, x: NDArray) -> float:
        """Unweighted R(x)."""
        return float(np.sum(huber(self.diff_op.apply(x), self.alpha)))

    def gradient(self, x: NDArray) -> NDArray:
        """beta T'(D Tx), the gradient of beta R at x."""
        return self.majorize(x)[1]

    def weights(self, x: NDArray) -> NDArray:
        """Diagonal D = min(alpha / |Tx|, 1) at the current point."""
        return huber_weight(self.diff_op.apply(x), self.alpha)

    def majorize(self, x: NDArray) -> tuple[NDArray, NDArray]:
        """(D, beta T'(D Tx)) at x, from one T x."""
        tx = self.diff_op.apply(x)
        d = huber_weight(tx, self.alpha)
        return d, self.beta * self.diff_op.adjoint(d * tx)

    def curvature(self, d: NDArray, p: NDArray) -> float:
        """beta (Tp)' D (Tp), the majorizer's curvature along p for weights D."""
        return self.beta * float(d @ np.abs(self.diff_op.apply(p)) ** 2)

    def curvature_matrix(self, d: NDArray) -> NDArray:
        """beta T'DT as a dense (n, n) array, so that p' (beta T'DT) p is
        `curvature(d, p)`; T is `diff_op.densify()`."""
        t = self.diff_op.densify()
        return self.beta * (t.T @ (d[:, None] * t))

    def hessian_matrix(self, d: NDArray) -> NDArray:
        """beta T'ET as a dense (n, n) array, E = 1 where the weights D are 1
        (|Tx| within the knee, where h is quadratic) and 0 where h is affine:
        the Hessian of beta R at a real x with no |Tx| on the knee."""
        return self.curvature_matrix((d == 1.0).astype(float))


class RegularizedObjective:
    """Psi(x) = f(x) + beta R(x), the cost every solver descends and reports.
    R is the Huber-smoothed TV of `reg`; reg=None leaves the data term f
    alone."""

    def __init__(self, data: PoissonObjective, reg: HuberTV | None = None):
        self.data = data
        self.reg = reg

    def cost(self, x: NDArray) -> float:
        c = self.data.cost(x)
        if self.reg is None:
            return c
        return c + self.reg.beta * self.reg.value(x)

    def gradient(self, x: NDArray, keep: NDArray | None = None) -> NDArray:
        """The data gradient (rows outside `keep` dropped) plus the penalty's."""
        return self.gradient_and_weights(x, keep)[0]

    def gradient_and_weights(self, x: NDArray, keep: NDArray | None = None
                             ) -> tuple[NDArray, NDArray | None]:
        """(`gradient(x, keep)`, the Huber weights D at x), from one T x; D is
        None without a penalty."""
        g = self.data.gradient(x, keep)
        if self.reg is None:
            return g, None
        d, g_reg = self.reg.majorize(x)
        return realify(g + g_reg, self.data.field), d
