"""Builtin true-signal patterns used by the benchmark CLI."""

from __future__ import annotations

import numpy as np

from .operators import FieldTag, SignalVector


N_BLOCKS = 6  # constant pieces of `blocks`
DISK_RADIUS_FRAC = 0.3  # `disk` radius over the shorter image side


def blocks(n: int, seed: int = 0) -> SignalVector:
    """Piecewise-constant nonnegative 1D signal of N_BLOCKS pieces."""
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.choice(np.arange(1, n), size=N_BLOCKS - 1, replace=False))
    levels = rng.uniform(0.1, 1.0, size=N_BLOCKS)
    x = np.zeros(n)
    prev = 0
    for e, lv in zip(list(edges) + [n], levels):
        x[prev:e] = lv
        prev = e
    return SignalVector(x.astype(complex), field=FieldTag.REAL_NONNEGATIVE)


def disk(h: int, w: int) -> SignalVector:
    """Filled disk on a dark background, image-shaped."""
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    r = DISK_RADIUS_FRAC * min(h, w)
    img = 0.1 + 0.9 * (((yy - cy) ** 2 + (xx - cx) ** 2) <= r * r)
    return SignalVector(
        img.ravel().astype(complex), field=FieldTag.REAL_NONNEGATIVE, dims=(h, w)
    )


def random_complex(n: int, seed: int = 0) -> SignalVector:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SignalVector(x / np.sqrt(2.0), field=FieldTag.COMPLEX)
