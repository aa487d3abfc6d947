"""Span tracer for the traced run.

Wrappers are installed from the benchmark's own files, at the name each
caller looks up: module attributes for module-level functions (for example
`mm.power_method`, `admm.power_method` and `init_eval.power_method` are
three names of one function), class attributes for the objectives' `cost`
and `gradient` and the regularizer's `value`/`gradient`/`weights` (so the
`HuberTV` that `admm.update_x` builds internally is seen too), and instance
attributes for the model's operator methods. Nothing is wrapped in the
untraced run.

Each span records its name, start, end and parent span; spans are kept in
memory, in flat arrays, and written when the run ends. A span's self time is
its duration minus the durations of its direct children (calls are nested,
so children never overlap).
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from poisson_pr import admm, baselines, init_eval, mm, operators, wf
from poisson_pr.objectives import GaussianObjective, HuberTV, PoissonObjective

# (module or class, attribute, span name)
PATCH_POINTS = [
    (operators, "load_file_matrix", "operators.load_file_matrix"),
    (wf, "run_wf", "wf.run_wf"),
    (wf, "step_fisher", "wf.step_fisher"),
    (wf, "step_fisher_reg", "wf.step_fisher"),
    (wf, "step_backtracking", "wf.step_backtracking"),
    (wf, "_nrmse", "init_eval.metrics"),
    (wf, "_psnr", "init_eval.metrics"),
    (mm, "run_mm", "mm.run_mm"),
    (mm, "build_majorizer", "mm.build_majorizer"),
    (mm, "curvature_improved", "mm.curvature_improved"),
    (mm, "mm_update_unregularized", "mm.mm_update_unregularized"),
    (mm, "minimize_quad_plus_huber", "mm.minimize_quad_plus_huber"),
    (admm, "minimize_quad_plus_huber", "mm.minimize_quad_plus_huber"),
    (mm, "cg_solve", "numerics.cg_solve"),
    (admm, "cg_solve", "numerics.cg_solve"),
    (mm, "power_method", "numerics.power_method"),
    (admm, "power_method", "numerics.power_method"),
    (init_eval, "power_method", "numerics.power_method"),
    (admm, "run_admm", "admm.run_admm"),
    (admm, "update_v_magnitude_bpos", "admm.update_v_magnitude_bpos"),
    (admm, "update_x", "admm.update_x"),
    (baselines, "run_lbfgs", "baselines.run_lbfgs"),
    (baselines, "lbfgs_minimize", "numerics.lbfgs_minimize"),
    (init_eval, "initialize", "init_eval.initialize"),
    (init_eval, "spectral_init", "init_eval.spectral_init"),
    (init_eval, "scale_fit", "init_eval.scale_fit"),
    (PoissonObjective, "cost", "objectives.cost"),
    (GaussianObjective, "cost", "objectives.cost"),
    (PoissonObjective, "gradient", "objectives.gradient"),
    (HuberTV, "value", "objectives.huber_tv"),
    (HuberTV, "gradient", "objectives.huber_tv"),
    (HuberTV, "weights", "objectives.huber_tv"),
]
MODEL_METHODS = ("apply", "apply_linear", "adjoint", "densify")
OPERATOR_CALLS = ("operators.apply", "operators.apply_linear", "operators.adjoint")

# every traced library function, in report order
LAYER_FUNCTIONS = sorted(
    {name for _, _, name in PATCH_POINTS} | {f"operators.{m}" for m in MODEL_METHODS}
)
# spans whose descendants the per-layer ratios select
MARKS = ("wf.run_wf", "baselines.run_lbfgs", "wf.step_backtracking",
         "init_eval.spectral_init")


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float):
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close, clock = self._open, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, t0)
        return traced

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark itself; yields its index."""
        idx = self._open(self._id(name))
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            self._close(idx, t0)

    def install(self):
        for owner, attr, name in PATCH_POINTS:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original))
            self._patched.append((owner, attr, original))

    def install_model(self, model):
        """Shadow the model's operator methods with traced instance attributes."""
        for m in MODEL_METHODS:
            setattr(model, m, self.wrap(f"operators.{m}", getattr(model, m)))
            self._patched.append((model, m, None))

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._patched.clear()

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )


class SpanTable:
    """Derived per-span data: self time, the enclosing `bench.*` span, and a
    bit set of the enclosing MARKS spans."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        nid = np.frombuffer(tracer.name_id, np.int32).copy()
        parent = np.frombuffer(tracer.parent, np.int32).copy()
        dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        n = nid.size
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
        self.name_id = nid
        self.duration = dur
        self.self_time = dur - child[:n]
        mark_bit = [1 << MARKS.index(s) if s in MARKS else 0 for s in self.names]
        is_bench = [s.startswith("bench.") for s in self.names]
        within = [0] * n
        bench = [-1] * n
        for i, (k, p) in enumerate(zip(nid.tolist(), parent.tolist())):
            w, b = (within[p], bench[p]) if p >= 0 else (0, -1)
            within[i] = w | mark_bit[k]
            bench[i] = i if is_bench[k] else b
        self.within = np.array(within, dtype=np.int64)
        self.bench = np.array(bench, dtype=np.int64)

        ops = np.isin(nid, [self.names.index(o) for o in OPERATOR_CALLS
                            if o in self.names]) & (self.bench >= 0)
        self.ops_in_bench = np.bincount(self.bench[ops], minlength=n)

    def _mask(self, name, within=None):
        if name not in self.names:
            return np.zeros(self.name_id.size, bool)
        m = self.name_id == self.names.index(name)
        if within is not None:
            m &= (self.within & (1 << MARKS.index(within))) != 0
        return m

    def calls(self, name, within=None) -> int:
        return int(np.count_nonzero(self._mask(name, within)))

    def self_s(self, name) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def spans_named(self, name) -> np.ndarray:
        return np.flatnonzero(self._mask(name))

    def self_s_by_module(self, bench_name) -> dict[str, float]:
        """Self time of library spans inside `bench_name` spans, per module."""
        if bench_name not in self.names:
            return {}
        bid = self.names.index(bench_name)
        inside = (self.bench >= 0) & (self.name_id[np.maximum(self.bench, 0)] == bid)
        inside &= self.name_id != bid
        out: dict[str, float] = {}
        for k in np.unique(self.name_id[inside]).tolist():
            module = self.names[k].split(".")[0]
            t = float(self.self_time[inside & (self.name_id == k)].sum())
            out[module] = out.get(module, 0.0) + t
        return out
