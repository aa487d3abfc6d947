"""Poisson and Gaussian ML cost functions, Fisher marginals, and the
Huber-smoothed anisotropic TV regularizer."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .numerics import DegenerateIterateError
from .operators import (
    DenseModel, FieldTag, ForwardModel, HalfSpectrum, _normal_gram, realify,
)


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
    """Negative Poisson log-likelihood f(x) = sum_i psi((Ax)_i; y_i, b_i), with
    the marginal psi(v; y, b) = (|v|^2 + b) - y log(|v|^2 + b) (0 log 0 := 0)
    and its ascent direction psi_dot(v; y, b) = 2v(1 - y/(|v|^2 + b)).

    f sums c_k psi(s_k; ybar_k, b_k) over the objective's rows, built once
    here: every row (c = 1, ybar = y), or, on a real field with a DFT model
    whose background is equal on the rows of each pair, the model's `half`
    spectrum. A x is conjugate-symmetric there, so a pair shares |s|^2 + b:
    a half row and its mirror have c = 2 and the mean of their counts, a row
    whose mirror is itself or a half row c = 1 and its own count, and
    Re(A' psi_dot) is `adjoint(., half=True)` of psi_dot at ybar. `forward`,
    `marginal_grad`, `fisher_diag` (c-weighted) and `positive` take the
    objective's rows; `y` and `b` stay every row's.

    psi is exactly |s|^2 + b on a zero count, so with s = A x and P =
    `positive`, the rows with a positive count, on every model f(x) =
    sum c|s|^2 + sum b - (c ybar)_P' log(|s_P|^2 + b_P), whose log is taken
    on P alone. On a `DenseModel` (whose rows are every row) sum |s|^2 is
    Re(x'(A'A)x) and s_P = A_P x, and grad f = 2(A'A)x - A_P'(2 y_P s_P /
    (|s_P|^2 + b_P)), with no M x N product (`split`). On the other models s
    is `forward(x)`, and the gradient is A' applied to the marginal
    gradient 2s, less 2 ybar_P s_P / (|s_P|^2 + b_P) on P (`marginal_grad`),
    whose division is taken on P alone. A zero rate on a zero count is no
    error there (its marginal gradient is 2s); on P it is. On a real field x
    and the gradient are float64, and A'A is Re(A'A). The counts must be
    finite and nonnegative (a ValueError otherwise, as in `MeasurementSet`).
    """

    def __init__(self, model: ForwardModel, y: NDArray, field: FieldTag = FieldTag.COMPLEX):
        y = np.asarray(y, dtype=float)
        if y.shape != (model.rows,):
            raise ValueError(
                f"measurements have shape {y.shape}, model has {model.rows} rows"
            )
        if not np.all(np.isfinite(y) & (y >= 0)):
            raise ValueError("measurements must be finite and nonnegative")
        self.model = model
        self.y = y
        self.b = model.background
        self.field = field
        self._sum_b = float(np.sum(self.b))
        self._split = None  # (model.memo(), A_P, A'A)
        self._use_rows(self._half_spectrum())

    def _half_spectrum(self) -> HalfSpectrum | None:
        """The model's half spectrum where the data term folds onto it: on a
        real field, with a background equal on the rows of each pair."""
        if not self.field.is_real or self.model.half is None:
            return None
        half = self.model.half
        return half if np.array_equal(self.b[half.rows][half.pair], self.b) else None

    def _use_rows(self, half: HalfSpectrum | None) -> None:
        """Sum the data term over the half spectrum `half`, or over every row
        where it is None: the weights c, the background `b_rows` of those
        rows, the rows P with their summed and mean counts, and empty
        memos."""
        self.half = half
        if half is None:
            self.c, counts, self.b_rows = 1.0, self.y, self.b
        else:
            self.c = half.c
            counts = half.fold(self.y)
            self.b_rows = self.b[half.rows]
        self.positive = np.flatnonzero(counts > 0)  # P, the rows with a positive count
        self._count_pos = counts[self.positive]  # (c ybar)_P, each pair's summed count
        # the mean counts ybar_P and the background b_P
        self.y_pos = self._count_pos / (1.0 if half is None else self.c[self.positive])
        self.b_pos = self.b_rows[self.positive]
        self._memo = None  # (copy of x, model.scale, read-only A x)
        self._pos_memo = None  # (copy of x, A_P, read-only A_P x)

    def full_rows(self) -> PoissonObjective:
        """This objective over every row: itself where it sums over them
        already, else a copy that does (for WF's truncation mask, which is
        per row)."""
        if self.half is None:
            return self
        full = copy.copy(self)
        full._use_rows(None)
        return full

    def every_row(self, w: NDArray) -> NDArray:
        """w, one entry per row of the objective, at each row of the model:
        each row takes its half row's entry."""
        return w if self.half is None else w[self.half.pair]

    def forward(self, x: NDArray) -> NDArray:
        """model.apply(x) over the objective's rows, read-only. The last
        result is kept, keyed by a copy of x's values and by model.scale, so
        that the cost, gradient and step rules of one iterate share one
        forward product. The kept product is either `apply`'s or one handed
        to `remember`: WF's unclamped step moves it along the step as
        `A x - mu A grad`, which agrees with `apply` to rounding (within
        1e-12 relative over 300 iterations)."""
        memo = self._memo
        if memo is not None and memo[1] == self.model.scale and _same(memo[0], x):
            return memo[2]
        return self.remember(x, self.model.apply(x, half=self.half is not None))

    def forward_linear(self, p: NDArray) -> NDArray:
        """model.apply_linear(p) over the objective's rows."""
        return self.model.apply_linear(p, half=self.half is not None)

    def remember(self, x: NDArray, ax: NDArray) -> NDArray:
        """Keep `ax`, made read-only, as `forward(x)` until the next miss or
        `remember`, keyed as `forward` keys it; for a point whose product the
        caller already holds. Returns `ax`."""
        ax.flags.writeable = False
        self._memo = (np.array(x, copy=True), self.model.scale, ax)
        return ax

    def split(self) -> tuple[NDArray, NDArray] | None:
        """(A_P, A'A) on a `DenseModel`, None elsewhere. A_P is the rows P of
        `densify()`, contiguous and read-only, kept in the model's `memo` for
        every objective with the same P; A'A is `_normal_gram`'s. Both are
        taken again when the memo is emptied (a new scale or matrix)."""
        if not isinstance(self.model, DenseModel):
            return None
        memo = self.model.memo()
        if self._split is None or self._split[0] is not memo:
            key = ("positive rows", self.positive.tobytes())
            a = None
            if key not in memo:
                a = self.model.densify()
                memo[key] = a[self.positive]
                memo[key].flags.writeable = False
            self._split = (memo, memo[key], _normal_gram(self.model, self.field, a))
        return self._split[1:]

    def zero_count_split(self) -> tuple[NDArray, NDArray] | None:
        """(A_P, G_Z) on a `DenseModel`, None where `split` is: A_P is
        `split`'s, and G_Z = A_Z'A_Z, Z the rows with a zero count, is A'A
        minus A_P'A_P, so that no row of Z is taken; on a real field, where
        `split`'s A'A is Re(A'A), it is the real Re(A'A) - Re(A_P'A_P). A is
        densified once for both."""
        split = self.split()
        if split is None:
            return None
        a_p, h = split
        return a_p, h - realify(a_p.conj().T @ a_p, self.field)

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
        s = a_p @ x
        s.flags.writeable = False
        self._pos_memo = (np.array(x, copy=True), a_p, s)
        return s

    def _positive_rate(self, s: NDArray, where: str) -> NDArray:
        """|s_P|^2 + b_P for s_P = (A x)_P; a zero rate on P leaves psi and its
        derivative (named by `where`) undefined."""
        rate = np.abs(s) ** 2 + self.b_pos
        if np.any(rate == 0):
            raise DegenerateIterateError(f"{where} undefined: zero rate with positive count")
        return rate

    def cost(self, x: NDArray) -> float:
        split = self.split()
        if split is None:
            s = self.forward(x)
            quad = np.vdot(s, self.c * s).real
            rate = self._positive_rate(s[self.positive], "psi")
        else:
            rate = self._positive_rate(self.positive_forward(x), "psi")
            quad = np.vdot(x, split[1] @ x).real
        return float(quad + self._sum_b - self._count_pos @ np.log(rate))

    def marginal_grad(self, v: NDArray) -> NDArray:
        """psi_dot(v; ybar, b) for v = A x, one entry per row of the
        objective, a fresh array: 2v, less 2 ybar_P v_P / (|v_P|^2 + b_P) on
        the rows P."""
        s = v[self.positive]
        rate = self._positive_rate(s, "psi_dot")
        mg = 2.0 * v
        mg[self.positive] -= (2.0 * self.y_pos / rate) * s
        return mg

    def gradient(self, x: NDArray, keep: NDArray | None = None) -> NDArray:
        """A' psi_dot(Ax) in the field's dtype, its float real part on a real
        field (from the half rows of a half spectrum, whose `adjoint` gives
        Re(A' psi_dot) alone); rows outside the boolean mask `keep` contribute
        nothing. On a `DenseModel` it is
        2(A'A)x - A_P'(2 y_P s_P / (|s_P|^2 + b_P)) - A_D' psi_dot((Ax)_D),
        D the rows `keep` drops, psi_dot((Ax)_D) the rows D of `marginal_grad`
        on `forward(x)`; where `keep` drops none, the last term is not
        formed. `keep` is per row of the model, so where the objective's rows
        are a half spectrum, a gradient with `keep` takes every row."""
        if keep is not None and self.half is not None:
            return self.full_rows().gradient(x, keep)
        split = self.split()
        if split is None:
            mg = self.marginal_grad(self.forward(x))
            if keep is not None:
                mg = np.where(keep, mg, 0.0)
            return realify(self.model.adjoint(mg, half=self.half is not None), self.field)
        a_p, h = split
        s = self.positive_forward(x)
        rate = self._positive_rate(s, "psi_dot")
        # conj(A_P' r) = conj(r) A_P, which conjugates no M x N array
        back = ((2.0 * self.y_pos / rate) * s).conj() @ a_p
        drop = np.flatnonzero(~keep) if keep is not None else ()
        if len(drop):
            mg = self.marginal_grad(self.forward(x))[drop]
            back = back + mg.conj() @ self.model.densify()[drop]
        return 2.0 * (h @ x) - realify(back.conj(), self.field)

    def fisher_diag(self, v: NDArray) -> NDArray:
        """c times the marginal Fisher information at v = A x, one entry per
        row of the objective, so that d' diag(.) d over its rows is the sum
        over every row for a conjugate-symmetric d."""
        return self.c * fisher_marginal_poisson(v, self.b_rows)


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

    def _half_spectrum(self) -> None:
        """None: the Gaussian cost sums over every row, whose residuals a
        pair of rows does not share."""
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
        return g + g_reg, d
