"""Forward models: abstract linear operator A, its four variants, and
Poisson measurement simulation.

Every model applies a positive scalar `scale` multiplicatively to A and
carries a nonnegative mean background vector b, so the measurement mean is
|scale * (A x)_i|^2 + b_i.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .numerics import DegenerateIterateError, cg_solve


class FieldTag(enum.Enum):
    """Field the unknown signal lives in."""

    REAL = "real"
    COMPLEX = "complex"
    REAL_NONNEGATIVE = "real_nonnegative"

    @property
    def is_real(self) -> bool:
        return self is not FieldTag.COMPLEX


@dataclass
class SignalVector:
    """The unknown signal with its field tag and optional image shape.
    `values` is float64 on a real field (its real part, where an imaginary
    part of at most 1e-12 is given) and complex128 on the complex field."""

    values: NDArray
    field: FieldTag = FieldTag.COMPLEX
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("signal must be a nonempty 1D vector")
        if self.field.is_real and np.max(np.abs(np.imag(values))) > 1e-12:
            raise ValueError("real-field signal has nonzero imaginary part")
        self.values = in_field(values, self.field)
        if self.field is FieldTag.REAL_NONNEGATIVE and np.min(self.values) < 0:
            raise ValueError("nonnegative-field signal has negative entries")

    @property
    def n(self) -> int:
        return self.values.size


def in_field(x, field: FieldTag) -> NDArray:
    """x in its field's dtype, a fresh contiguous array: the float64 real
    part on a real field, complex128 on the complex one. Each solver starts
    from it."""
    return np.array(realify(np.asarray(x), field), float if field.is_real else complex)


def realify(x: NDArray, field: FieldTag) -> NDArray:
    """The real part of x, a float view, for real fields; x itself otherwise;
    no clamp. For the products whose result is complex on every field."""
    return x.real if field.is_real else x


def project_field(x: NDArray, field: FieldTag) -> NDArray:
    """Project an iterate of its field's dtype onto the field: clamp
    negatives on the orthant."""
    return np.maximum(x, 0.0) if field is FieldTag.REAL_NONNEGATIVE else x


@dataclass(frozen=True)
class HalfSpectrum:
    """The half spectrum of a DFT model whose A x is conjugate-symmetric for
    every real x: each row i holds the value of half row `pair[i]`, or its
    conjugate. `rows` (an index array, or a slice where the half rows are
    the first rows) takes the half rows out of a vector over every row, in
    the order of the half product, and `c[k]` counts the rows that `pair`
    maps to k: 2 for a row and its conjugate mirror, 1 for a row whose
    mirror is itself or also in the half spectrum.

    `extend` and `fold` are exact maps between a half vector and one over
    every row: `extend(apply(x, half=True))` is `apply(x)`, and
    `adjoint(fold(u) / c, half=True)` is Re(A'u) for any u, both to
    rounding. Each half row has at most one mirror row (a row outside
    `rows`), so a fold sums at most two terms."""

    rows: NDArray | slice
    pair: NDArray
    c: NDArray

    @cached_property
    def _mirrors(self) -> tuple[NDArray, NDArray, NDArray]:
        """(`rows` as an index array, the mirror rows, the half row `pair`
        maps each mirror row to)."""
        mirror = np.ones(self.pair.size, bool)
        mirror[self.rows] = False
        mirror = np.flatnonzero(mirror)
        return np.arange(self.pair.size)[self.rows], mirror, self.pair[mirror]

    def extend(self, h: NDArray) -> NDArray:
        """The vector over every row whose row i is h[pair[i]], conjugated on
        the mirror rows; a fresh array."""
        _, mirror, mate = self._mirrors
        out = np.empty(self.pair.size, h.dtype)
        out[self.rows] = h
        out[mirror] = h[mate].conj()
        return out

    def fold(self, u: NDArray) -> NDArray:
        """The half vector whose row k sums the rows of u that `pair` maps
        to k, a mirror row's conjugated; a fresh array, real for a real u,
        where it is `np.bincount(pair, weights=u)` bit for bit."""
        rows, mirror, mate = self._mirrors
        out = u[rows]
        out[mate] += u[mirror].conj()
        return out


class ForwardModel:
    """Base class: linear map with scale factor, background, and an optional
    fixed additive offset (the known reference in the canonical-DFT model).

    `apply` returns the scaled field including the offset; `apply_linear`
    and `adjoint` are the exact linear/adjoint pair used in all gradient and
    quadratic-form computations. With `half`, the DFT models (`half` not
    None) take them over their `HalfSpectrum`: `apply` and `apply_linear`
    give the half rows of A x for the real part of x, and `adjoint` the real
    Re(A' v), v the Hermitian extension of a half vector (each mirror row
    the conjugate of its half row).
    """

    rows: int
    cols: int
    half: HalfSpectrum | None = None

    def __init__(
        self,
        rows: int,
        cols: int,
        background=0.0,
        scale: float = 1.0,
        offset_raw: NDArray | None = None,
    ):
        if rows < 1 or cols < 1:
            raise ValueError(f"bad operator shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self.scale = float(scale)
        b = np.broadcast_to(np.asarray(background, dtype=float), (rows,)).copy()
        if np.any(b < 0) or not np.all(np.isfinite(b)):
            raise ValueError("background must be finite and nonnegative")
        self.background = b
        self.offset_raw = None if offset_raw is None else np.asarray(offset_raw, complex)
        self._memo = None  # (scale, {name: value derived from the densified A})

    # subclasses implement the unscaled linear map; those with a `half`
    # also `_apply_half` (of a float x) and `_adjoint_half` (a float result)
    def _apply(self, x: NDArray) -> NDArray:
        raise NotImplementedError

    def _adjoint(self, v: NDArray) -> NDArray:
        raise NotImplementedError

    def _check_x(self, x, half: bool = False) -> NDArray:
        """x as the product takes it: complex, or with `half` its real part."""
        x = np.asarray(x)
        if x.shape != (self.cols,):
            raise ValueError(
                f"apply: x has shape {x.shape}, operator expects ({self.cols},)"
            )
        if half:
            self._half_spectrum()
            return x.real
        return x.astype(complex, copy=False)

    def _half_spectrum(self) -> HalfSpectrum:
        """`half`; a ValueError on a model without one."""
        if self.half is None:
            raise ValueError(f"{type(self).__name__} has no half spectrum")
        return self.half

    def _linear(self, x, half: bool) -> NDArray:
        """The unscaled A x, a fresh complex array: over the half spectrum,
        for x's real part, with `half`."""
        x = self._check_x(x, half)
        return self._apply_half(x) if half else self._apply(x)

    def apply(self, x: NDArray, half: bool = False) -> NDArray:
        """Scaled field c * (A x), including the fixed offset if present.
        The offset and the scale act in place on `_apply`'s result, which
        must be a fresh complex array."""
        out = self._linear(x, half)
        if self.offset_raw is not None:
            out += self.offset_raw[self.half.rows] if half else self.offset_raw
        out *= self.scale
        return out

    def apply_linear(self, x: NDArray, half: bool = False) -> NDArray:
        """Scaled linear part only; the Jacobian action."""
        out = self._linear(x, half)
        out *= self.scale
        return out

    def adjoint(self, v: NDArray, half: bool = False) -> NDArray:
        """scale * A' v; with `half`, the float scale * Re(A' v) of the
        Hermitian extension of the half vector v."""
        v = np.asarray(v)
        rows = self._half_spectrum().c.size if half else self.rows
        if v.shape != (rows,):
            raise ValueError(
                f"adjoint: v has shape {v.shape}, operator expects ({rows},)"
            )
        v = v.astype(complex, copy=False)
        return self.scale * (self._adjoint_half(v) if half else self._adjoint(v))

    def intensities(self, x: NDArray) -> NDArray:
        """Measurement means |c (A x)_i|^2 + b_i."""
        return np.abs(self.apply(x)) ** 2 + self.background

    def normal_diag(self) -> NDArray | None:
        """Diagonal of A'A (including scale) when A'A is diagonal, else None."""
        return None

    def toeplitz_gram(self, w, field: FieldTag) -> CirculantGram | None:
        """A'diag(w)A as a `CirculantGram` when it is (a masked sum of)
        Toeplitz matrices, else None."""
        return None

    def memo(self) -> dict:
        """Values derived from the densified A (A'A and its extreme
        eigenvalues, the densified A itself), kept on the model, so they die
        with it, and emptied when `scale` changes."""
        if self._memo is None or self._memo[0] != self.scale:
            self._memo = (self.scale, {})
        return self._memo[-1]

    def densify(self) -> NDArray:
        """Explicit (rows, cols) matrix of the linear part (`_densify`'s),
        read-only and remembered in `memo`, so that a Gram formed on every
        MM outer iteration densifies A once per model."""
        memo = self.memo()
        if "a" not in memo:
            memo["a"] = self._densify()
            memo["a"].flags.writeable = False
        return memo["a"]

    def _densify(self) -> NDArray:
        """A, column by column from `apply_linear`."""
        return np.stack([self.apply_linear(e) for e in np.eye(self.cols)], axis=1)


class DenseModel(ForwardModel):
    """Explicit matrix model (random Gaussian or file-ingested)."""

    def __init__(self, entries: NDArray, background=0.0, scale: float = 1.0):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2:
            raise ValueError("dense model needs a 2D matrix")
        if not np.all(np.isfinite(entries.view(float))):
            raise ValueError("dense model entries must be finite")
        super().__init__(entries.shape[0], entries.shape[1], background, scale)
        self.entries = entries

    def _apply(self, x):
        return self.entries @ x

    def _adjoint(self, v):
        # conjugating the two vectors instead of the matrix copies nothing M x N
        return (v.conj() @ self.entries).conj()

    def memo(self) -> dict:
        """The base memo, emptied also when `entries` is reassigned."""
        memo = self._memo
        if memo is None or memo[0] != self.scale or memo[1] is not self.entries:
            memo = self._memo = (self.scale, self.entries, {})
        return memo[-1]

    def _densify(self) -> NDArray:
        """scale * entries (`densify` remembers it: a fresh M x N copy per
        call costs page faults on the order of the Gram product that reads
        it)."""
        return self.scale * self.entries


# normal equations with at most DIRECT_MAX_COLS unknowns are formed explicitly
DIRECT_MAX_COLS = 64
# `DenseGram.solve` rejects a Gram whose condition number exceeds MAX_COND; a
# Gram whose bound (max w / min w) cond(A'A) is at most RANK_PROOF * MAX_COND
# is proven to pass, the margin covering the rounding of both eigenvalue sets
MAX_COND, RANK_PROOF = 1e14, 1e-2
# `DenseGram.solve_nonnegative` stops when no bound coordinate's gradient is
# below -ACTIVE_SET_RTOL times the largest of |lin| and |hx|, and lets a
# coordinate tie to rounding down to -ACTIVE_SET_TIE times it
ACTIVE_SET_RTOL, ACTIVE_SET_TIE = 1e-12, 1e-8


def _weighted_gram(a: NDArray, sw, real: bool) -> NDArray:
    """C'C for C = diag(sw) a, sw a scalar or one factor per row of a.

    For real fields C is the (2M, N) stack of sw Re a over sw Im a, which
    numpy runs as a symmetric rank-k update: half the flops of the complex
    product, no imaginary part to discard, and an exactly symmetric result.
    """
    if np.ndim(sw):
        sw = sw[:, None]
    if not real:
        # at sw = 1 (`_normal_gram`) C is a itself: one M x N copy, the conj
        c = a if np.isscalar(sw) and sw == 1.0 else sw * a
        return c.conj().T @ c
    m = a.shape[0]
    c = np.empty((2 * m, a.shape[1]))
    np.multiply(a.real, sw, out=c[:m])
    np.multiply(a.imag, sw, out=c[m:])
    return c.T @ c


def _normal_gram(model: ForwardModel, field: FieldTag, a: NDArray | None = None) -> NDArray:
    """A'A of the densified A (Re(A'A) for real fields), read-only, formed
    once, from `a` where the caller has densified A, and kept in the model's
    `memo`."""
    memo = model.memo()
    key = ("gram", field.is_real)
    if key not in memo:
        memo[key] = _weighted_gram(model.densify() if a is None else a, 1.0, field.is_real)
        memo[key].flags.writeable = False
    return memo[key]


def gram(model: ForwardModel, w, field: FieldTag) -> NDArray:
    """A'diag(w)A of the densified A for w >= 0, a scalar or one weight per
    measurement; Re(A'WA) for real fields.

    Formed as c A'A + A_S' diag(w_S - c) A_S, with c = min w and S the rows
    where w > c, which is exact for any w >= 0. A'A comes from the model's
    memo, so a weight that sits at its minimum on most rows (MM's curvature
    is 2 on every zero count) costs only the rows above it. A scalar w is w
    times the memo's A'A, and where c = 0 (the spectral initializer's
    y/(y+1)) A'A is not formed.
    """
    if np.ndim(w) == 0:
        return w * _normal_gram(model, field)
    a = model.densify()
    c = np.min(w)
    rows = np.flatnonzero(w > c)
    h = _weighted_gram(a[rows], np.sqrt(w[rows] - c), field.is_real)
    if c != 0:
        h += c * _normal_gram(model, field, a)
    return h


def _rank_proven(model: ForwardModel, w, field: FieldTag) -> bool:
    """Whether `DenseGram.solve`'s rank check provably passes on the `gram` of
    w: the eigenvalues of A'WA lie in [min w lo, max w hi], with lo and hi
    the extreme eigenvalues of A'A, so its condition number is at most
    (max w / min w) hi / lo. That needs min w > 0, a finite max w, a full-rank
    A'A and the bound at most RANK_PROOF * MAX_COND; max w hi at most 1e300
    also keeps every entry and partial sum of the Gram finite. A'A's
    extreme eigenvalues (zeros for a non-finite A'A) are computed once and
    kept in the model's `memo`."""
    lo, hi = np.min(w), np.max(w)
    if not 0.0 < lo <= hi < np.inf:
        return False
    memo = model.memo()
    key = ("spectrum", field.is_real)
    if key not in memo:
        h = _normal_gram(model, field)
        memo[key] = np.linalg.eigvalsh(h)[[0, -1]] if np.isfinite(h).all() else np.zeros(2)
    e_lo, e_hi = memo[key]
    return 0.0 < e_lo and hi * e_hi <= min(1e300, RANK_PROOF * MAX_COND * lo * e_lo)


class DenseGram:
    """The `gram` matrix h, solved directly, in h's dtype: float64 on a real
    field. The first solve checks h's eigenvalues and raises
    DegenerateIterateError on a zero or negative one, a condition number
    above MAX_COND, or none at all (a non-finite h), unless `source`, the
    (model, w, field) whose `gram` h is, proves the check passes
    (`_rank_proven`)."""

    def __init__(self, h: NDArray, source: tuple | None = None):
        self.h, self.source, self.checked = h, source, False

    def __matmul__(self, z):
        return self.h @ z

    def solve(self, rhs, iters, tol):
        if not self.checked:
            if self.source is None or not _rank_proven(*self.source):
                try:
                    eig = np.linalg.eigvalsh(self.h)
                except np.linalg.LinAlgError:  # h not finite: overflowed curvatures
                    raise DegenerateIterateError(
                        "A'WA has no eigenvalues: not finite") from None
                if not 0.0 < eig[-1] <= MAX_COND * eig[0]:
                    raise DegenerateIterateError("A'WA is singular: rank-deficient model")
            self.checked = True
        return np.linalg.solve(self.h, rhs)

    def solve_nonnegative(self, lin, x0):
        """argmin over x >= 0 of 1/2 x'hx - lin'x, floats in and out, h
        positive definite, by a primal active-set solve (Lawson & Hanson
        1974, ch. 23) warm-started at max(x0, 0). The value never rises.

        Each step solves h on the free set. A feasible solution becomes x,
        and the bound coordinate with the most negative gradient is freed;
        the solve ends when none is below -ACTIVE_SET_RTOL times the size of
        lin and hx. Otherwise x moves toward that solution until a free
        coordinate reaches 0, which is bound again. A freed coordinate that
        the next solve sends to <= 0 ties to rounding and stays bound when
        its gradient is above -ACTIVE_SET_TIE times that size. A larger one,
        a singular h, a non-finite solution or 3N + 10 steps without
        settling raise DegenerateIterateError."""
        h, c = self.h, lin
        x = np.maximum(x0, 0.0)
        free = x > 0
        tied = np.zeros_like(free)
        added = -1
        for _ in range(3 * c.size + 10):
            z = np.zeros_like(c)
            try:
                z[free] = np.linalg.solve(h[np.ix_(free, free)], c[free])
            except np.linalg.LinAlgError:
                raise DegenerateIterateError("singular active-set solve") from None
            if not np.all(np.isfinite(z)):
                raise DegenerateIterateError("non-finite active-set solve")
            bad = free & (z <= 0)
            if added >= 0 and bad[added]:
                if g[added] < -ACTIVE_SET_TIE * size:
                    raise DegenerateIterateError("ill-conditioned active-set solve")
                tied[added], free[added] = True, False
            elif bad.any():
                idx = np.flatnonzero(bad)
                ratio = x[idx] / (x[idx] - z[idx])
                k = np.argmin(ratio)
                x = x + ratio[k] * (z - x)
                x[idx[k]] = 0.0
                free &= x > 0
                x[~free] = 0.0
            else:
                x = z
                g = h @ x - c
                size = max(np.abs(c).max(), np.abs(g + c).max())
                cand = np.where(free | tied, np.inf, g)
                added = int(np.argmin(cand))
                if cand[added] >= -ACTIVE_SET_RTOL * size:
                    return x
                free[added] = True
                continue
            added = -1
        raise DegenerateIterateError("active-set solve did not settle")


class DiagonalGram(DenseGram):
    """A diagonal Gram, h its diagonal: products and solves are elementwise."""

    def __matmul__(self, z):
        return self.h * z

    def solve(self, rhs, iters, tol):
        return rhs / self.h


class NormalOp:
    """z -> A'diag(w)A z (Re(A'diag(w)A) z for real fields), w a scalar or
    one weight per measurement, in the field's dtype; also called as
    `op(z)`, and solved by CG."""

    def __init__(self, model: ForwardModel, w, field: FieldTag):
        self.model, self.w, self.field = model, w, field

    def __matmul__(self, z):
        return realify(self.model.adjoint(self.w * self.model.apply_linear(z)), self.field)

    def __call__(self, z):
        return self @ z

    def solve(self, rhs, iters, tol):
        return cg_solve(self, rhs, iters=iters, tol=tol)


class CirculantGram(NormalOp):
    """z -> scale^2 sum_l D_l F'diag(w_l)F D_l z, F the unnormalized DFT on a
    grid into whose corner z (shaped `dims`) is zero-padded, D_l a mask; a
    `NormalOp` with its own product.

    `w` is (L, *grid) with masks of shape (L, *dims), or `grid` alone
    without masks. F'WF is Toeplitz along each axis, with lags
    scale^2 n ifft(w), and is applied through a circulant embedding of its
    lags -(s-1)..(s-1): an axis of s unknowns keeps its grid length where
    that is shorter than 2s - 1 (its lags wrap there already), else is
    embedded at the smallest power of two >= 2s - 1. The circulant's
    spectrum is formed once; each product is an FFT, a multiply and an
    inverse FFT, real-to-complex of a float64 z for real fields, whose
    result is float64 too. Real weights make F'WF Hermitian and the
    spectrum real.

    `solve` is CG preconditioned from the same lags (`numerics.cg_solve`),
    in the field's dtype, float64 on a real field. With masks the
    preconditioner is Jacobi, the diagonal sum_l m_l^2 c_l[0], inverted
    where it is positive and 0 on an unknown no mask covers. Without, it is
    T. Chan's optimal circulant on the unknowns' grid (SIAM J. Sci. Stat.
    Comput. 9, 1988; Chan & Ng, SIAM Review 38, 1996): per axis of s
    unknowns and grid length n, the circulant's first column is
    ((s-k) c[k] + k c[(k-s) mod n]) / s, k < s, exact where n = s; its
    eigenvalues come from one real or complex FFT, and a spectrum that is
    not positive leaves CG unpreconditioned.
    """

    def __init__(self, w: NDArray, scale: float, dims: tuple[int, ...],
                 field: FieldTag, masks: NDArray | None = None):
        self.dims, self.field, self.masks = tuple(dims), field, masks
        axes = tuple(range(-len(self.dims), 0))
        c = scale**2 * np.fft.ifftn(w, axes=axes, norm="forward")
        if field.is_real:
            c = c.real
        # the preconditioner, from the lags before their embedding
        self.inv_diag = self.chan_spectrum = None
        if masks is not None:
            diag = (masks * masks).T @ c[:, 0].real
            self.inv_diag = np.divide(1.0, diag, out=np.zeros_like(diag), where=diag > 0)
        else:
            self.chan_spectrum = _chan_spectrum(c, self.dims, field)
        for axis, s in zip(axes, self.dims):
            n = c.shape[axis]
            if n < 2 * s - 1:
                continue
            size = 1 << (2 * s - 2).bit_length()
            c = np.moveaxis(c, axis, -1)
            emb = np.zeros(c.shape[:-1] + (size,), c.dtype)
            emb[..., :s] = c[..., :s]
            emb[..., size - s + 1:] = c[..., n - s + 1:]
            c = np.moveaxis(emb, -1, axis)
        self.sizes = c.shape[-len(self.dims):]
        self.spectrum = (np.fft.rfftn if field.is_real else np.fft.fftn)(c, axes=axes).real

    def __matmul__(self, z):
        f = np.reshape(z, self.dims)
        if self.masks is not None:
            f = self.masks * f
        # one axis at a time, padded by its transform and cropped right after
        # its inverse, so no other axis transforms those zeros; rfft/irfft
        # take the last axis, first and last
        real = self.field.is_real
        steps = list(zip(range(-len(self.dims), 0), self.sizes, self.dims))
        if real:
            steps.reverse()
        for k, (axis, size, _) in enumerate(steps):
            f = (np.fft.rfft if real and k == 0 else np.fft.fft)(f, size, axis)
        f = f * self.spectrum
        for k, (axis, size, s) in reversed(list(enumerate(steps))):
            f = (np.fft.irfft if real and k == 0 else np.fft.ifft)(f, size, axis)
            f = f[(slice(None),) * (f.ndim + axis) + (slice(s),)]
        if self.masks is not None:
            f = np.sum(self.masks * f, axis=0)
        return f.ravel()

    def precondition(self, z):
        """z -> M^{-1} z: the inverse diagonal with masks, else the inverse of
        T. Chan's circulant."""
        if self.inv_diag is not None:
            return self.inv_diag * z
        u = np.reshape(z, self.dims)
        if self.field.is_real:
            f = np.fft.rfftn(u) / self.chan_spectrum
            return np.fft.irfftn(f, self.dims, tuple(range(u.ndim))).ravel()
        return np.fft.ifftn(np.fft.fftn(u) / self.chan_spectrum).ravel()

    def solve(self, rhs, iters, tol):
        usable = self.inv_diag is not None or self.chan_spectrum is not None
        return cg_solve(self, rhs, iters, tol, self.precondition if usable else None)


def _chan_spectrum(c: NDArray, dims: tuple[int, ...], field: FieldTag) -> NDArray | None:
    """The eigenvalues of T. Chan's circulant on the grid `dims` for the
    Toeplitz lags c (`CirculantGram`), half of them (`rfftn`'s) on a real
    field; None unless all are positive."""
    for axis, s in zip(range(-len(dims), 0), dims):
        n = c.shape[axis]
        if n == s:
            continue  # lags that wrap at s: the Toeplitz matrix is circulant
        # lags k and k - s, k < s <= n
        c, t = np.moveaxis(c, axis, -1), np.arange(s) / s
        c = np.moveaxis(c[..., :s] * (1.0 - t) + c[..., n - s:] * t, -1, axis)
    eig = (np.fft.rfftn(c) if field.is_real else np.fft.fftn(c)).real
    return eig if np.all(eig > 0) else None


def quad_form(model: ForwardModel, w, field: FieldTag):
    """A'diag(w)A as `q @ z` and `q.solve(rhs, iters, tol)`, the one choice of
    its form: a `DiagonalGram` for a scalar w where A'A is diagonal, a
    `DenseGram` up to DIRECT_MAX_COLS columns, the FFT models'
    `toeplitz_gram`, else a NormalOp. A scalar w (ADMM's rho) scales the
    model's remembered A'A, and the rank check reads its remembered spectrum."""
    diag = model.normal_diag() if np.ndim(w) == 0 else None
    if diag is not None:
        return DiagonalGram(w * diag)
    if model.cols <= DIRECT_MAX_COLS:
        return DenseGram(gram(model, w, field), (model, w, field))
    op = model.toeplitz_gram(w, field)
    return NormalOp(model, w, field) if op is None else op


def _real_array(a, name: str) -> NDArray:
    """a as floats; a ValueError where an entry has a nonzero imaginary part,
    which a float cast would drop."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if np.any(a.imag != 0):
            raise ValueError(f"{name} must be real")
        a = a.real
    return np.asarray(a, dtype=float)


def random_gaussian_model(
    rows: int, cols: int, seed: int = 0, background=0.0
) -> DenseModel:
    """Complex random Gaussian system matrix, entries CN(0, 1)."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    return DenseModel(a / np.sqrt(2.0), background=background)


class CanonicalDftModel(ForwardModel):
    """2D DFT of the horizontal concatenation [x, 0, reference].

    The unknown image x and the known reference share the height; the zero
    block defaults to the width of x. The DFT is the unnormalized forward
    transform, optionally zero-padded to `fft_dims`.
    """

    def __init__(
        self,
        image_dims: tuple[int, int],
        reference: NDArray,
        pad_width: int | None = None,
        fft_dims: tuple[int, int] | None = None,
        background=0.0,
        scale: float = 1.0,
    ):
        h, w = image_dims
        reference = _real_array(reference, "reference")
        if reference.ndim != 2 or reference.shape[0] != h:
            raise ValueError("reference height must match image height")
        if not np.all(np.isfinite(reference)):
            raise ValueError("reference must be finite")
        if np.any(reference < 0):
            raise ValueError("reference must be nonnegative")
        self.image_dims = (h, w)
        self.reference = reference
        self.pad_width = w if pad_width is None else int(pad_width)
        if self.pad_width < 0:
            raise ValueError(f"pad_width must be nonnegative, got {self.pad_width}")
        concat_w = w + self.pad_width + reference.shape[1]
        self.concat_dims = (h, concat_w)
        self.fft_dims = self.concat_dims if fft_dims is None else tuple(fft_dims)
        if len(self.fft_dims) != 2 or self.fft_dims[0] < h or self.fft_dims[1] < concat_w:
            raise ValueError("fft_dims must be two lengths, at least the "
                             "concatenated image's")
        ref_img = np.zeros(self.concat_dims)
        ref_img[:, w + self.pad_width:] = reference
        offset = np.fft.fft2(ref_img, s=self.fft_dims).ravel()
        super().__init__(
            self.fft_dims[0] * self.fft_dims[1], h * w, background, scale, offset
        )
        self.half_dims = (self.fft_dims[0] // 2 + 1, self.fft_dims[1])

    @cached_property
    def half(self) -> HalfSpectrum:
        """Axis 0 halved: grid rows 0..P//2 of P, the first rows, each row's
        mirror (-p, -q); rows 0 and P/2 (even P) mirror within themselves.
        Built on first use."""
        p_len, q_len = self.fft_dims
        p, q = np.arange(p_len), np.arange(q_len)
        pair = np.where(p[:, None] < self.half_dims[0], q, -q % q_len)
        pair += (np.minimum(p, p_len - p) * q_len)[:, None]
        c = np.full(self.half_dims, 2.0)
        c[[0, -1] if p_len % 2 == 0 else 0] = 1.0
        return HalfSpectrum(slice(c.size), pair.ravel(), c.ravel())

    def _apply(self, x):
        # the image's columns, then its rows padded: the zero block and the
        # zero rows of the padded grid are never transformed
        cols = np.fft.fft(x.reshape(self.image_dims), n=self.fft_dims[0], axis=0)
        return np.fft.fft(cols, n=self.fft_dims[1], axis=1).ravel()

    def _adjoint(self, v):
        # the conjugate DFT kernel: rows, then only the image's columns
        h, w = self.image_dims
        rows = np.fft.ifft(v.reshape(self.fft_dims), axis=1)[:, :w]
        return (np.fft.ifft(rows, axis=0) * self.rows)[:h].ravel()

    def _apply_half(self, x):
        # the real transform down the columns, whose half the row transforms
        # then take; halving axis 1 instead leaves axis 0's full transform
        # on complex columns, which is slower than the full product
        cols = np.fft.rfft(x.reshape(self.image_dims), n=self.fft_dims[0], axis=0)
        return np.fft.fft(cols, n=self.fft_dims[1], axis=1).ravel()

    def _adjoint_half(self, v):
        # unnormalized inverses ("forward" puts the 1/n on the forward
        # transform): rows, then the real inverse of the image's columns
        h, w = self.image_dims
        rows = np.fft.ifft(v.reshape(self.half_dims), axis=1, norm="forward")[:, :w]
        return np.fft.irfft(rows, n=self.fft_dims[0], axis=0, norm="forward")[:h].ravel()

    def normal_diag(self):
        return np.full(self.cols, self.scale**2 * self.rows)

    def toeplitz_gram(self, w, field):
        w = np.broadcast_to(w, (self.rows,)).reshape(self.fft_dims)
        return CirculantGram(w, self.scale, self.image_dims, field)


class MaskedDftModel(ForwardModel):
    """Oversampled 1D DFT of mask-weighted copies of x.

    Row block l is the length-(2N-1) DFT of D_l * x; the stacked system has
    M = L * (2N - 1) rows.
    """

    def __init__(self, masks: NDArray, background=0.0, scale: float = 1.0):
        masks = _real_array(masks, "masks")
        if masks.ndim != 2:
            raise ValueError("masks must be an (L, N) array")
        if not np.all(np.isfinite(masks)):
            raise ValueError("masks must be finite")
        self.masks = masks
        self.num_masks, n = masks.shape
        self.n_tilde = 2 * n - 1
        super().__init__(self.num_masks * self.n_tilde, n, background, scale)

    @cached_property
    def half(self) -> HalfSpectrum:
        """Each block's frequencies 0..N-1 of 2N-1, the rest mirroring
        1..N-1; frequency 0 is its own mirror. Built on first use."""
        n, block = self.cols, np.arange(self.num_masks)[:, None]
        k = np.arange(self.n_tilde)
        c = np.full((self.num_masks, n), 2.0)
        c[:, 0] = 1.0
        return HalfSpectrum((block * self.n_tilde + k[:n]).ravel(),
                            (block * n + np.minimum(k, self.n_tilde - k)).ravel(),
                            c.ravel())

    def _apply(self, x):
        return np.fft.fft(self.masks * x[None, :], n=self.n_tilde, axis=1).ravel()

    def _adjoint(self, v):
        blocks = v.reshape(self.num_masks, self.n_tilde)
        w = np.fft.ifft(blocks, axis=1) * self.n_tilde
        return np.sum(self.masks * w[:, : self.cols], axis=0)

    def _apply_half(self, x):
        return np.fft.rfft(self.masks * x[None, :], n=self.n_tilde, axis=1).ravel()

    def _adjoint_half(self, v):
        # the unnormalized real inverse ("forward" puts the 1/n on the
        # forward transform)
        blocks = v.reshape(self.num_masks, self.cols)
        w = np.fft.irfft(blocks, n=self.n_tilde, axis=1, norm="forward")
        return np.sum(self.masks * w[:, : self.cols], axis=0)

    def normal_diag(self):
        return self.scale**2 * self.n_tilde * np.sum(self.masks**2, axis=0)

    def toeplitz_gram(self, w, field):
        w = np.broadcast_to(w, (self.rows,)).reshape(self.num_masks, self.n_tilde)
        return CirculantGram(w, self.scale, (self.cols,), field, self.masks)


def make_masks(
    num_masks: int, n: int, seed: int = 0, exact_half: bool = False
) -> NDArray:
    """Binary sampling masks: first all-ones, the rest at rate 0.5."""
    rng = np.random.default_rng(seed)
    masks = np.ones((num_masks, n))
    for l in range(1, num_masks):
        if exact_half:
            idx = rng.permutation(n)[: n // 2]
            row = np.zeros(n)
            row[idx] = 1.0
            masks[l] = row
        else:
            masks[l] = (rng.random(n) < 0.5).astype(float)
    return masks


def load_file_matrix(path: str, background=0.0) -> DenseModel:
    """Dense model from CSV: header "M,N", then rows of "re:im" entries."""
    with open(path, "r") as f:
        header = f.readline().strip()
        try:
            m, n = (int(t) for t in header.split(","))
        except ValueError as exc:
            raise ValueError(f"bad file-matrix header {header!r}") from exc
        entries = np.zeros((m, n), dtype=complex)
        for i in range(m):
            line = f.readline()
            if not line:
                raise ValueError(f"file matrix ended early at row {i}")
            parts = line.strip().split(",")
            if len(parts) != n:
                raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
            for j, p in enumerate(parts):
                re, im = p.split(":")
                entries[i, j] = float(re) + 1j * float(im)
    return DenseModel(entries, background=background)


def save_file_matrix(path: str, entries: NDArray) -> None:
    entries = np.asarray(entries, dtype=complex)
    m, n = entries.shape
    with open(path, "w") as f:
        f.write(f"{m},{n}\n")
        for row in entries:
            f.write(",".join(f"{z.real:.17g}:{z.imag:.17g}" for z in row) + "\n")


# a PGM header token, after the whitespace and comments before it
_PGM_TOKEN = re.compile(rb"(?:\s+|#[^\n]*)*(\S*)")


def load_pgm(path: str) -> NDArray:
    """Grayscale PGM (P2 or P5) as a float image normalized to [0, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    tokens, i = [], 0
    while len(tokens) < 4 and (m := _PGM_TOKEN.match(data, i)).group(1):
        tokens.append(m.group(1))
        i = m.end()
    header = b" ".join(tokens).decode(errors="replace")
    if len(tokens) < 4:
        raise ValueError(f"PGM header {header!r}: magic, width, height and maxval expected")
    magic = tokens[0].decode(errors="replace")
    if magic not in ("P2", "P5"):
        raise ValueError(f"not a PGM file: magic {magic!r}")
    if not all(t.isdigit() and int(t) > 0 for t in tokens[1:]):
        raise ValueError(f"PGM header {header!r}: width, height and maxval "
                         "must be positive integers")
    w, h, maxval = (int(t) for t in tokens[1:])
    if maxval > 65535:
        raise ValueError(f"PGM header {header!r}: maxval above 65535")
    if magic == "P5":
        i += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.uint8
        img = np.frombuffer(data, dtype=dtype, count=w * h, offset=i)
    else:
        img = np.array(data[i:].split()[: w * h], dtype=float)
    return img.reshape(h, w).astype(float) / float(maxval)


@dataclass
class MeasurementSet:
    """Poisson counts with their generating seed and realized mean."""

    y: NDArray
    seed: int
    mean_count: float = dc_field(default=0.0)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if not np.all(np.isfinite(self.y) & (self.y >= 0)):
            raise ValueError("measurements must be finite and nonnegative")
        self.mean_count = float(np.mean(self.y))


def calibrate_scale(
    model: ForwardModel, x_true: NDArray, target_mean: float
) -> float:
    """Set model.scale so the exact mean intensity equals target_mean."""
    if target_mean <= 0:
        raise ValueError("target mean count must be positive")
    raw = model._linear(x_true, half=False)
    if model.offset_raw is not None:
        raw = raw + model.offset_raw
    m2 = float(np.mean(np.abs(raw) ** 2))
    mb = float(np.mean(model.background))
    if m2 == 0.0:
        if np.isclose(target_mean, mb):
            model.scale = 0.0
            return 0.0
        raise ValueError("A x_true = 0: target mean unattainable by scaling")
    if target_mean < mb or np.isclose(target_mean, mb):
        raise ValueError(f"target mean {target_mean} at or below mean background {mb}")
    c = float(np.sqrt((target_mean - mb) / m2))
    model.scale = c
    return c


def simulate_poisson(model: ForwardModel, x_true: NDArray, seed: int) -> MeasurementSet:
    """Draw y_i ~ Poisson(|c (A x)_i|^2 + b_i), reproducibly; a ValueError
    where a mean is not finite (a NaN or infinite signal or scale)."""
    mean = model.intensities(x_true)
    if not np.all(np.isfinite(mean) & (mean >= 0)):
        raise ValueError("Poisson means must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    y = rng.poisson(mean).astype(float)
    return MeasurementSet(y=y, seed=seed)
