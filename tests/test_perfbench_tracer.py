"""The benchmark's traced run wraps library names that must keep existing."""

import importlib.util
from pathlib import Path

import numpy as np

from poisson_pr.admm import run_admm
from poisson_pr.init_eval import initialize
from poisson_pr.mm import run_mm
from poisson_pr.objectives import PoissonObjective
from poisson_pr.operators import calibrate_scale, random_gaussian_model, simulate_poisson

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_points_resolve_and_uninstall_restores():
    tracer = load_tracer()
    originals = [getattr(owner, attr) for owner, attr, _ in tracer.PATCH_POINTS]
    t = tracer.Tracer()
    t.install()
    try:
        for (owner, attr, _), fn in zip(tracer.PATCH_POINTS, originals):
            assert getattr(owner, attr) is not fn
    finally:
        t.uninstall()
    for (owner, attr, _), fn in zip(tracer.PATCH_POINTS, originals):
        assert getattr(owner, attr) is fn


def test_solver_kernels_stay_on_the_traced_path():
    tracer = load_tracer()
    model = random_gaussian_model(48, 8, seed=1, background=0.1)
    x = np.random.default_rng(2).standard_normal(8).astype(complex)
    calibrate_scale(model, x, 0.25)
    obj = PoissonObjective(model, simulate_poisson(model, x, 3).y)
    x0 = initialize(model, obj.y, seed=4)
    t = tracer.Tracer()
    t.install()
    try:
        run_mm(obj, x0, 1)
        run_admm(obj, x0, 1)
    finally:
        t.uninstall()
    for name in ("mm.run_mm", "mm.build_majorizer", "mm.mm_update_unregularized",
                 "admm.run_admm", "admm.update_x", "admm.update_v_magnitude_bpos"):
        assert name in t.names
