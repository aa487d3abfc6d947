"""A fixed probe that measures the host's speed during a run.

On a shared host the same work runs up to 1.7 times slower for spells of
seconds to minutes, as other tenants load the machine, and the level drifts
by 20% between runs half an hour apart. How much slower depends on the kind
of work: a dense GEMV slows less than a Python loop over small arrays. So
each workload has a probe shaped like its own work: a few Wirtinger-flow
style iterations on a fixed random problem with the same kind of operator.
The probe does not call the library, so a change to the library cannot move
it. The benchmark times the probe before every timed call and divides each
pass's times by the pass's slowdown, the mean probe time over REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np

# (operator kind, rows or masks, columns, iterations) of each workload's probe
PROBES = {
    "paper-dense": ("dense", 4096, 64, 2),
    "race-small": ("dense", 256, 32, 30),
    "fft": ("masked", 21, 256, 3),
}
# typical probe time within a run on the host the benchmark was defined on
# (2-core Xeon VM, OpenBLAS with one thread); a slowdown of 1 is that host's
# usual speed
REFERENCE_S = {"paper-dense": 2.3e-3, "race-small": 2.0e-3, "fft": 4.3e-3}


class SpeedProbe:
    def __init__(self, workload: str):
        kind, m, n, self.iters = PROBES[workload]
        self.reference_s = REFERENCE_S[workload]
        rng = np.random.default_rng(0)
        if kind == "dense":
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            self.op = lambda x: a @ x
            self.adjoint = lambda v: (v.conj() @ a).conj()
            rows = m
        else:
            masks = (rng.random((m, n)) < 0.5).astype(float)
            width = 2 * n - 1
            self.op = lambda x: np.fft.fft(masks * x, n=width, axis=1).ravel()
            self.adjoint = lambda v: np.sum(
                masks * np.fft.ifft(v.reshape(m, width), axis=1)[:, :n], axis=0)
            rows = m * width
        self.y = rng.poisson(0.25, rows).astype(float)
        self.x0 = rng.random(n) + 0j

    def __call__(self) -> float:
        """Seconds the fixed work takes now."""
        t0 = time.perf_counter()
        x = self.x0
        for _ in range(self.iters):
            ax = self.op(x)
            rate = np.abs(ax) ** 2 + 0.1
            g = self.adjoint(2.0 * ax * (1.0 - self.y / rate)).real
            d = self.op(g + 0j)
            mu = float(np.sum(g * g)) / max(float(np.sum(np.abs(d) ** 2)), 1e-30)
            x = np.maximum(x.real - 1e-3 * mu * g, 0.0) + 0j
            float(np.sum(rate - self.y * np.log(rate)))
        return time.perf_counter() - t0
