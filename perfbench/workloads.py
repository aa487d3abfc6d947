"""Benchmark workloads: how each instance is generated and which solvers run.

An instance is one generated problem (model, counts, true signal); the
initial point is computed by the timed `initialize` step of the run loop.
Every solver is called through its module attribute (`wf.run_wf`, ...), so
the tracer's wrappers, installed at those names, see the calls.

Instance seeds come from `numpy.random.SeedSequence((workload_seed, pass,
instance))`; the phantoms are fixed, as in the paper's experiments, so a
seed changes the system matrix or masks, the Poisson noise and the
power-method start.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from poisson_pr import admm, baselines, mm, operators, wf
from poisson_pr.objectives import DiffOp, GaussianObjective, HuberTV, PoissonObjective
from poisson_pr.phantoms import blocks, disk

MEAN_COUNT = 0.25
BACKGROUND = 0.1


@dataclass
class Solver:
    """One solver call on an instance.

    `family` names the solver for the per-layer `iters_to_gap` metrics.
    A probe runs once per instance, untimed, and counts only toward
    `failed_frac`.
    """

    name: str
    family: str
    objective: str
    budget: int
    call: Callable  # (objective, x0, n_iters, x_true) -> RunState
    probe: bool = False


@dataclass
class Instance:
    name: str
    seeds: dict[str, int]
    setup: Callable[[], tuple]  # () -> (model, y); timed as set-up
    signal: operators.SignalVector
    objectives: Callable  # (model, y) -> {name: (data objective, reg or None)}
    solvers: list[Solver]


def _seeds(workload_seed: int, pass_index: int, names: tuple[str, ...],
           instance: int = 0) -> dict[str, int]:
    entropy = (workload_seed, pass_index, instance)
    state = np.random.SeedSequence(entropy).generate_state(len(names))
    return {n: int(s) for n, s in zip(names, state)}


def _objectives(signal, spec):
    """Builder of {name: (data objective, regularizer or None)} from
    {name: (objective class, regularizer or None)}."""
    def build(model, y):
        return {name: (cls(model, y, field=signal.field), reg)
                for name, (cls, reg) in spec.items()}
    return build


def _wf_fisher(reg=None):
    return lambda obj, x0, n, xt: wf.run_wf(obj, x0, n, reg=reg, x_true=xt)


def _mm(curvature, reg=None):
    return lambda obj, x0, n, xt: mm.run_mm(obj, x0, n, curvature=curvature,
                                            reg=reg, x_true=xt)


def _admm(reg=None):
    return lambda obj, x0, n, xt: admm.run_admm(obj, x0, n, reg=reg, x_true=xt)


def _dense_setup(signal, rows, matrix_seed, noise_seed):
    def setup():
        model = operators.random_gaussian_model(rows, signal.n, seed=matrix_seed,
                                                background=BACKGROUND)
        operators.calibrate_scale(model, signal.values, MEAN_COUNT)
        return model, operators.simulate_poisson(model, signal.values, noise_seed).y
    return setup


def paper_dense(seed: int, pass_index: int, workdir: str) -> list[Instance]:
    """Criterion-7 instance: dense CN(0,1) A, M=4096, N=64, blocks phantom."""
    s = _seeds(seed, pass_index, ("matrix", "noise", "init"))
    signal = blocks(64, seed=0)
    tv = HuberTV(32.0, 0.1, DiffOp(64))
    objectives = _objectives(signal, {"poisson": (PoissonObjective, None),
                                      "gaussian": (GaussianObjective, None),
                                      "poisson+tv": (PoissonObjective, tv)})
    solvers = [
        Solver("wf-fisher-poisson", "wf.fisher", "poisson", 300, _wf_fisher()),
        Solver("wf-fisher-gaussian", "wf.fisher", "gaussian", 300, _wf_fisher()),
        Solver("wf-fisher-poisson-tv", "wf.fisher", "poisson+tv", 300, _wf_fisher(tv)),
        Solver("mm-improved", "mm.improved", "poisson", 50,
               _mm(mm.CurvatureKind.IMPROVED)),
        Solver("admm", "admm", "poisson", 50, _admm()),
    ]
    return [Instance("dense", s, _dense_setup(signal, 4096, s["matrix"], s["noise"]),
                     signal, objectives, solvers)]


def race_small(seed: int, pass_index: int, workdir: str) -> list[Instance]:
    """Criterion-8 size, M=256, N=32, file-backed matrix, all six solvers."""
    s = _seeds(seed, pass_index, ("matrix", "noise", "init"))
    signal = blocks(32, seed=0)
    path = os.path.join(workdir, f"matrix-{seed}-{pass_index}.csv")
    entries = operators.random_gaussian_model(256, 32, seed=s["matrix"]).entries
    operators.save_file_matrix(path, entries)

    def setup():
        model = operators.load_file_matrix(path, background=BACKGROUND)
        operators.calibrate_scale(model, signal.values, MEAN_COUNT)
        return model, operators.simulate_poisson(model, signal.values, s["noise"]).y

    tv = HuberTV(2.0, 0.1, DiffOp(32))
    objectives = _objectives(signal, {"poisson+tv": (PoissonObjective, tv)})

    backtracking = wf.StepRule(wf.StepKind.BACKTRACKING)
    solvers = [
        Solver("wf-fisher", "wf.fisher", "poisson+tv", 200, _wf_fisher(tv)),
        Solver("wf-backtracking", "wf.backtracking", "poisson+tv", 200,
               lambda obj, x0, n, xt: wf.run_wf(obj, x0, n, rule=backtracking,
                                                reg=tv, x_true=xt)),
        Solver("lbfgs", "baselines.lbfgs", "poisson+tv", 200,
               lambda obj, x0, n, xt: baselines.run_lbfgs(obj, x0, n, reg=tv,
                                                          x_true=xt)),
        Solver("mm-improved", "mm.improved", "poisson+tv", 100,
               _mm(mm.CurvatureKind.IMPROVED, tv)),
        Solver("mm-max", "mm.max", "poisson+tv", 100, _mm(mm.CurvatureKind.MAX, tv)),
        Solver("admm", "admm", "poisson+tv", 100, _admm(tv)),
    ]
    return [Instance("dense-file", s, setup, signal, objectives, solvers)]


def fft(seed: int, pass_index: int, workdir: str) -> list[Instance]:
    """Two FFT-backed instances: 21 masked DFTs of a 1D phantom (N=256), and
    the canonical 2D DFT of a 64x64 disk with a disk reference (N=4096)."""
    sm = _seeds(seed, pass_index, ("masks", "noise", "init"))
    sig1 = blocks(256, seed=0)
    tv1 = HuberTV(2.0, 0.1, DiffOp(256))

    def masked_setup():
        masks = operators.make_masks(21, 256, seed=sm["masks"])
        model = operators.MaskedDftModel(masks, background=BACKGROUND)
        operators.calibrate_scale(model, sig1.values, MEAN_COUNT)
        return model, operators.simulate_poisson(model, sig1.values, sm["noise"]).y

    masked = Instance("masked-dft", sm, masked_setup, sig1,
                      _objectives(sig1, {"poisson": (PoissonObjective, None),
                                         "poisson+tv": (PoissonObjective, tv1)}), [
        Solver("wf-fisher-tv", "wf.fisher", "poisson+tv", 100, _wf_fisher(tv1)),
        Solver("admm", "admm", "poisson", 100, _admm()),
        Solver("mm-improved", "mm.improved", "poisson", 20,
               _mm(mm.CurvatureKind.IMPROVED)),
    ])

    sc = _seeds(seed, pass_index, ("noise", "init"), instance=1)
    sig2 = disk(64, 64)
    reference = disk(64, 64).values.real.reshape(64, 64)
    tv2 = HuberTV(2.0, 0.1, DiffOp(sig2.n, dims=sig2.dims))

    def canonical_setup():
        model = operators.CanonicalDftModel(sig2.dims, reference, background=BACKGROUND)
        operators.calibrate_scale(model, sig2.values, MEAN_COUNT)
        return model, operators.simulate_poisson(model, sig2.values, sc["noise"]).y

    canonical = Instance("canonical-dft", sc, canonical_setup, sig2,
                         _objectives(sig2, {"poisson": (PoissonObjective, None),
                                            "poisson+tv": (PoissonObjective, tv2)}), [
        Solver("wf-fisher-tv", "wf.fisher", "poisson+tv", 100, _wf_fisher(tv2)),
        Solver("mm-improved", "mm.improved", "poisson", 20,
               _mm(mm.CurvatureKind.IMPROVED)),
        Solver("admm", "admm", "poisson", 100, _admm(), probe=True),
    ])
    return [masked, canonical]


WORKLOADS = {
    "paper-dense": paper_dense,
    "race-small": race_small,
    "fft": fft,
}
