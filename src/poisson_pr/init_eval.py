"""Spectral initialization, scale fitting, phase correction, and metrics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.typing import NDArray

from .numerics import power_method
from .operators import FieldTag, ForwardModel, SignalVector, quad_form, realify

PSNR_CAP_DB = 300.0


@dataclass
class TraceRow:
    k: int
    time_s: float
    cost: float
    nrmse: float
    psnr: float


@dataclass
class RunState:
    """Final iterate plus the per-iteration trace of a solver run."""

    x: NDArray
    trace: list[TraceRow] = dc_field(default_factory=list)
    status: str = "ok"
    warnings: list[str] = dc_field(default_factory=list)

    def costs(self) -> NDArray:
        return np.array([r.cost for r in self.trace])


def spectral_init(
    model: ForwardModel, y: NDArray, iters: int = 300, seed: int = 0
) -> tuple[NDArray, list[str]]:
    """Unit-norm leading eigenvector of A' diag{y / (y+1)} A via power method
    on its `quad_form`, `iters` iterations at most: the method stops once its
    iterate settles (`numerics.power_method`). An all-zero y makes the
    operator zero, and the method's random unit start is returned."""
    y = np.asarray(y, dtype=float)
    warns = (["all-zero measurements: spectral operator is zero, "
              "returning a random unit vector"] if np.all(y == 0) else [])
    q = quad_form(model, y / (y + 1.0), FieldTag.COMPLEX)
    _, v = power_method(lambda x: q @ x, model.cols, iters=iters, seed=seed)
    return v, warns


def scale_fit(model: ForwardModel, y: NDArray, x0: NDArray) -> tuple[float, list[str]]:
    """Nonlinear LS fit of the initializer scale.

    Closed form sqrt((y - b)' |Ax0|^2) / ||Ax0||_4^2; clipped to 0 with a
    warning when the weighted residual sum is negative.
    """
    ax = model.apply(np.asarray(x0, complex))
    a2 = np.abs(ax) ** 2
    denom = float(np.sum(a2**2))
    if denom == 0.0:
        raise ValueError("scale_fit: A x0 = 0")
    num = float(np.dot(np.asarray(y, float) - model.background, a2))
    if num < 0:
        return 0.0, ["scale_fit: negative LS numerator, returning 0"]
    return float(np.sqrt(num) / np.sqrt(denom)), []


def finalize_init(x0: NDArray, alpha: float, field: FieldTag) -> NDArray:
    """alpha*x0, elementwise-absolute for real-nonnegative signals."""
    scaled = alpha * np.asarray(x0, complex)
    if field is FieldTag.REAL_NONNEGATIVE:
        return np.abs(scaled).astype(complex)
    return realify(scaled, field)


def initialize(
    model: ForwardModel,
    y: NDArray,
    field: FieldTag = FieldTag.COMPLEX,
    iters: int = 300,
    seed: int = 0,
) -> SignalVector:
    """Spectral init (at most `iters` power iterations) + scale fit + field
    finalization."""
    v, warns = spectral_init(model, y, iters=iters, seed=seed)
    alpha, more = scale_fit(model, y, v)
    for msg in warns + more:
        warnings.warn(msg)
    return SignalVector(finalize_init(v, alpha, field), field=field)


def phase_correct(x_hat: NDArray, x_true: NDArray) -> NDArray:
    """Remove the global phase: sign(<x_hat, x_true>) x_hat, sign(0) := 1."""
    ip = np.vdot(x_hat, x_true)
    s = ip / abs(ip) if abs(ip) > 0 else 1.0
    return s * np.asarray(x_hat, complex)


def error_metrics(x_true: NDArray, peak: float | None = None):
    """x_hat -> (NRMSE, PSNR) against x_true: the phase-corrected ||x_hat -
    x_true|| / ||x_true||, and the PSNR in dB of `peak` (max |x_true| by
    default) capped at 300, from one phase correction and one error norm."""
    x_true = np.asarray(x_true)
    true_norm = float(np.linalg.norm(x_true))
    if peak is None:
        peak = float(np.max(np.abs(x_true)))
    peak2n = peak**2 * x_true.size

    def metrics(x_hat: NDArray) -> tuple[float, float]:
        err = phase_correct(x_hat, x_true) - x_true
        err2 = float(np.vdot(err, err).real)
        nr = float(np.sqrt(err2) / true_norm)
        if err2 == 0.0:
            return nr, PSNR_CAP_DB
        return nr, float(min(10.0 * np.log10(peak2n / err2), PSNR_CAP_DB))
    return metrics


def nrmse(x_hat: NDArray, x_true: NDArray) -> float:
    """Phase-corrected ||x_hat - x_true|| / ||x_true|| (`error_metrics`)."""
    return error_metrics(x_true)(x_hat)[0]


def psnr(x_hat: NDArray, x_true: NDArray, peak: float | None = None) -> float:
    """Phase-corrected PSNR in dB, capped at 300 (`error_metrics`)."""
    return error_metrics(x_true, peak)(x_hat)[1]
