#!/usr/bin/env python3
"""poisson-pr benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload paper-dense --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from `src/`. The
run repeats passes until the next one would not fit in `--seconds`. A pass
generates the workload's instances from (seed, pass index), then for each
instance: builds the model and counts (set-up) and runs `initialize`, each
timed as a block of back-to-back calls, calls every solver with its full
budget (timed), finds each objective's gap target, and calls each solver
again with the budget at which it first met the target (timed). Every solve
is checked (see checks.py). Before each timed call the run times a fixed
speed probe (calibrate.py); the gated times are the pass's wall times
divided by its mean probe slowdown, and the `wall_` metrics are the raw
ones. With `--trace 1`, each pass also runs a second time with
the tracer's wrappers installed, which gives the per-layer metrics and the
tracing overhead.

Stdout: a table of every metric with its unit, the failing solves by name,
the environment, then one JSON line with the metrics BENCHMARK.json lists
(`end_to_end` untraced, `per_layer` traced). Files under perfbench/out/:
the full result, one JSON line per solve, and (traced) the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

# numpy, the library and the benchmark's other modules are imported inside
# functions: main() first pins the BLAS threads (read when numpy loads) and
# puts src/ on the path
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# one BLAS thread: steadier than two on a shared two-core machine, and within
# the "no more threads than nproc" rule
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# set-up and init are timed as blocks of back-to-back calls lasting at least
# BLOCK_S, so a sample spans more than the host's short slow spells
BLOCK_S = 0.2
SPECTRAL_ITERS = 300
GAP_RTOL = 1e-3  # gap target c_ref + GAP_RTOL * (c0 - c_ref), criterion 8

MODULES = ("operators", "objectives", "wf", "mm", "admm", "baselines", "numerics",
           "init_eval")
FAMILIES = ("wf.fisher", "wf.backtracking", "mm.improved", "mm.max", "admm",
            "baselines.lbfgs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile). (None, None) while that percentile would lie below
    the median, that is with fewer than twenty samples."""
    n = len(values)
    if n < 20:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def solve_cost(obj, reg, x):
    c = obj.cost(x)
    return c + reg.beta * reg.value(x) if reg is not None else c


class Run:
    """State of one benchmark run: samples, per-solve records, failures."""

    def __init__(self, workload, seed, make_instances, workdir):
        from calibrate import SpeedProbe

        self.workload = workload
        self.seed = seed
        self.make_instances = make_instances
        self.workdir = workdir
        self.reps = {}  # calls per set-up or init block, fixed by the first block
        # one dict of per-pass times for each pass, untraced and traced
        self.samples = {"untraced": [], "traced": []}
        self.speed = SpeedProbe(workload)
        self.speeds = []  # speed-probe times of the current pass
        self.records = []
        self.failures = []  # (instance, solver, kind, detail, known)
        self.mismatches = []
        self.iters = {}  # traced pass: iterations run per family, all calls
        self.gap_spans = []  # traced pass: bench spans behind time_to_gap_s

    def solve(self, solver, obj, budget, x0, x_true, tracer, label):
        if tracer is None and label != "probe":
            self.speeds.append(self.speed())
        ctx = tracer.span(f"bench.{label}") if tracer else nullcontext(-1)
        with ctx as span:
            t0 = time.perf_counter()
            try:
                state, error = solver.call(obj, x0, budget, x_true), None
            # a solve that raises is a failed solve; it is reported by name
            except Exception as exc:  # noqa: BLE001
                state, error = None, exc
            elapsed = time.perf_counter() - t0
        return state, error, elapsed, span

    def block(self, key, fn, traced):
        """Call `fn` back to back; return (its last result, seconds per call).

        The first block of a run repeats the call until it lasts BLOCK_S and
        fixes that count for the rest of the run. A traced pass calls once.
        """
        reps = 1 if traced else self.reps.get(key)
        if not traced:
            self.speeds.append(self.speed())
        t0 = time.perf_counter()
        out, n = fn(), 1
        while (n < reps) if reps else (time.perf_counter() - t0 < BLOCK_S):
            out, n = fn(), n + 1
        self.reps.setdefault(key, n)
        return out, (time.perf_counter() - t0) / n

    def run_pass(self, pass_index, tracer=None):
        """One pass over the instances. Appends the pass's sample; returns
        the final cost of every solve."""
        from checks import KNOWN_DEFECTS, check_solve
        from poisson_pr import init_eval

        traced = tracer is not None
        solve_s = gap_s = 0.0
        finals = []
        gap_spans = []  # bench spans whose operator calls count to the gap
        setup_s = init_s = 0.0
        self.speeds = []
        for inst in self.make_instances(self.seed, pass_index, self.workdir):
            (model, y), seconds = self.block((inst.name, "setup"), inst.setup, traced)
            setup_s += seconds
            if traced:
                tracer.install_model(model)
            field = inst.signal.field
            x0, seconds = self.block(
                (inst.name, "init"),
                lambda: init_eval.initialize(model, y, field=field, iters=SPECTRAL_ITERS,
                                             seed=inst.seeds["init"]),
                traced)
            init_s += seconds
            objectives = inst.objectives(model, y)
            with tracer.span("bench.c0") if traced else nullcontext():
                c0 = {k: solve_cost(o, r, x0.values) for k, (o, r) in objectives.items()}
            x_true = inst.signal.values

            results = []
            for s in inst.solvers:
                obj, _ = objectives[s.objective]
                state, error, elapsed, span = self.solve(
                    s, obj, s.budget, x0, x_true, tracer, "probe" if s.probe else "full")
                failure = check_solve(state, error, field, s.family, c0[s.objective])
                results.append((s, state, elapsed, span, failure))
                if not s.probe:
                    solve_s += elapsed

            c_ref = {}
            for s, state, _, _, failure in results:
                if failure is None and not s.probe:
                    best = float(state.costs().min())
                    c_ref[s.objective] = min(c_ref.get(s.objective, best), best)

            for s, state, elapsed, span, failure in results:
                obj, reg = objectives[s.objective]
                hit = None
                if failure is None and not s.probe and s.objective in c_ref:
                    ref = c_ref[s.objective]
                    target = ref + GAP_RTOL * (c0[s.objective] - ref)
                    hits = (state.costs() <= target).nonzero()[0]
                    hit = int(hits[0]) + 1 if hits.size else None
                term, term_span = elapsed, span
                if hit is not None and hit < s.budget:
                    again, error, term, term_span = self.solve(
                        s, obj, hit, x0, x_true, tracer, "gap")
                    if error is not None or list(again.costs()) != list(state.costs()[:hit]):
                        self.mismatches.append(f"{inst.name}/{s.name}: a call with "
                                               f"budget {hit} does not repeat the "
                                               f"first {hit} iterations")
                    if traced:
                        self.iters[s.family] = self.iters.get(s.family, 0) + hit
                if traced:
                    n_run = len(state.trace) if state is not None else 0
                    self.iters[s.family] = self.iters.get(s.family, 0) + n_run
                    if not s.probe:
                        gap_spans.append(term_span)
                if s.probe:
                    term = 0.0
                gap_s += term
                finals.append(state.trace[-1].cost if state is not None and state.trace
                              else float("nan"))
                if traced:
                    continue
                if failure is not None:
                    known = KNOWN_DEFECTS.get((self.workload, inst.name, s.name)) == failure[0]
                    self.failures.append((inst.name, s.name, failure[0], failure[1], known))
                self.records.append(self.record(pass_index, inst, s, state, hit,
                                                failure, elapsed, term))
        sample = {"setup": setup_s, "init": init_s, "solve": solve_s, "gap": gap_s}
        if traced:
            self.gap_spans.append(gap_spans)
        else:
            sample["slowdown"] = statistics.mean(self.speeds) / self.speed.reference_s
        self.samples["traced" if traced else "untraced"].append(sample)
        return finals

    def record(self, pass_index, inst, s, state, hit, failure, elapsed, term):
        from poisson_pr.init_eval import nrmse

        ok = state is not None and state.trace
        costs = state.costs() if ok else None
        return {
            "workload": self.workload, "seed": self.seed, "pass": pass_index,
            "instance": inst.name, "instance_seeds": inst.seeds, "solver": s.name,
            "family": s.family, "objective": s.objective, "probe": s.probe,
            "iterations": len(state.trace) if state is not None else 0,
            "iters_to_gap": hit,
            "final_cost": float(costs[-1]) if ok else None,
            "final_nrmse": nrmse(state.x, inst.signal.values) if ok else None,
            "status": "ok" if failure is None else failure[0],
            "detail": None if failure is None else failure[1],
            "solve_s": elapsed, "time_to_gap_s": term,
            "cost_trace_sha1": hashlib.sha1(costs.tobytes()).hexdigest() if ok else None,
        }


def end_to_end(run):
    passes = run.samples["untraced"]

    def at_reference(key):
        return [p[key] / p["slowdown"] for p in passes]

    def wall(key):
        return [p[key] for p in passes]

    timed = [r for r in run.records if not r["probe"]]
    nrmses = [r["final_nrmse"] for r in timed if r["final_nrmse"] is not None]
    metrics = {
        "setup_s": (statistics.median(at_reference("setup")), "s"),
        "init_s": (statistics.median(at_reference("init")), "s"),
        "solve_s_p50": (statistics.median(at_reference("solve")), "s"),
        "time_to_gap_s_p50": (statistics.median(at_reference("gap")), "s"),
        "host_slowdown_p50": (statistics.median(wall("slowdown")), "1"),
        "wall_setup_s": (statistics.median(wall("setup")), "s"),
        "wall_init_s": (statistics.median(wall("init")), "s"),
        "wall_solve_s_p50": (statistics.median(wall("solve")), "s"),
        "wall_time_to_gap_s_p50": (statistics.median(wall("gap")), "s"),
        "nrmse_p50": (statistics.median(nrmses), "1"),
        "gap_reached_frac": (sum(r["iters_to_gap"] is not None for r in timed)
                             / len(timed), "1"),
        "failed_frac": (len(run.failures) / len(run.records), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    for name, key in (("solve_s", "solve"), ("time_to_gap_s", "gap")):
        value, pct = tail(at_reference(key))
        metrics[f"{name}_tail"] = (value, "s", pct)
    return metrics


def per_layer(run, table):
    from tracer import LAYER_FUNCTIONS

    n_pass = len(run.samples["traced"])
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        metrics[f"{fn}.calls"] = (table.calls(fn) / n_pass, "count")
        metrics[f"{fn}.self_s"] = (table.self_s(fn) / n_pass, "s")
    for fn in ("apply", "adjoint"):
        calls = table.calls(f"operators.{fn}")
        metrics[f"operators.{fn}.us_per_call"] = (
            1e6 * table.self_s(f"operators.{fn}") / calls if calls else 0.0, "us")

    def ratio(num, den):
        return num / den if den else 0.0

    wf_iters = run.iters.get("wf.fisher", 0) + run.iters.get("wf.backtracking", 0)
    metrics["wf.apply_per_iter"] = (
        ratio(table.calls("operators.apply", "wf.run_wf"), wf_iters), "count")
    metrics["wf.step_backtracking.cost_evals_per_step"] = (
        ratio(table.calls("objectives.cost", "wf.step_backtracking"),
              table.calls("wf.step_backtracking")), "count")
    metrics["baselines.lbfgs.fg_per_iter"] = (
        ratio(table.calls("objectives.gradient", "baselines.run_lbfgs"),
              run.iters.get("baselines.lbfgs", 0)), "count")
    metrics["init_eval.spectral_init.op_per_iter"] = (
        ratio(table.calls("operators.adjoint", "init_eval.spectral_init"),
              SPECTRAL_ITERS * table.calls("init_eval.spectral_init")), "count")
    for family in FAMILIES:
        hits = [r["iters_to_gap"] or r["iterations"] + 1 for r in run.records
                if r["family"] == family and not r["probe"]]
        metrics[f"{family}.iters_to_gap"] = (
            statistics.median(hits) if hits else 0.0, "count")
    opcalls = [sum(int(table.ops_in_bench[b]) for b in spans) for spans in run.gap_spans]
    metrics["opcalls_to_gap"] = (statistics.median(opcalls), "count")
    untraced = statistics.median(p["solve"] for p in run.samples["untraced"])
    traced = statistics.median(p["solve"] for p in run.samples["traced"])
    metrics["trace_overhead_frac"] = (traced / untraced - 1.0, "1")
    # where the traced full-budget solve time went, by module; the shares
    # sum to trace_accounted_frac, and the rest is the wrappers' own time
    # between spans
    full_s = float(table.duration[table.spans_named("bench.full")].sum())
    shares = table.self_s_by_module("bench.full")
    for module in MODULES:
        metrics[f"{module}.solve_share"] = (shares.get(module, 0.0) / full_s, "1")
    metrics["trace_accounted_frac"] = (sum(shares.values()) / full_s, "1")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))

    try:
        import poisson_pr  # noqa: F401
    except ImportError:
        print(f"poisson_pr not found under {ROOT / 'src'}: run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    import numpy as np

    import envinfo
    from tracer import SpanTable, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    run = Run(args.workload, args.seed, WORKLOADS[args.workload], workdir)
    tracer = Tracer() if args.trace else None
    try:
        start = time.perf_counter()
        pass_times = []
        pass_index = 0
        while True:
            t0 = time.perf_counter()
            # traced runs alternate which side goes first, so warm-up and
            # drift do not all land on one side of trace_overhead_frac
            if tracer is None:
                sides = [None]
            else:
                sides = [None, tracer] if pass_index % 2 == 0 else [tracer, None]
            finals = []
            for side in sides:
                if side is not None:
                    side.install()
                try:
                    finals.append(run.run_pass(pass_index, side))
                finally:
                    if side is not None:
                        side.uninstall()
            if len(finals) == 2 and not np.array_equal(*finals, equal_nan=True):
                run.mismatches.append(f"pass {pass_index}: traced and untraced solves "
                                      "end at different costs")
            pass_times.append(time.perf_counter() - t0)
            pass_index += 1
            if time.perf_counter() - start + statistics.mean(pass_times) > args.seconds:
                break
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = end_to_end(run)
    layer = per_layer(run, SpanTable(tracer)) if tracer is not None else {}
    unexpected = [f for f in run.failures if not f[4]]
    correct = not unexpected and not run.mismatches
    env = envinfo.environment()

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.solves.jsonl", "w") as f:
        for rec in run.records:
            f.write(json.dumps(rec) + "\n")
    if tracer is not None:
        tracer.save(f"{stem}.spans.npz")

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {pass_index}  measured {measured_s:.1f} s")
    for name, (value, unit, *note) in {**metrics, **layer}.items():
        shown = f"n/a (n={pass_index} < 20)" if value is None else f"{value:.6g}"
        extra = f"  (p{note[0]:.1f}, n={pass_index})" if note and note[0] else ""
        print(f"{name:48s} {shown:>14s} {unit}{extra}")
    seen = {}
    for inst, solver, kind, detail, known in run.failures:
        seen.setdefault((inst, solver, kind, known), [0, detail])[0] += 1
    for (inst, solver, kind, known), (count, detail) in seen.items():
        print(f"FAILED {inst}/{solver}: {kind} in {count} of {pass_index} passes"
              f"{' (known defect)' if known else ''}: {detail}")
    for msg in run.mismatches:
        print(f"MISMATCH {msg}")
    print("env " + json.dumps(env))

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    everything = {**metrics, **layer}
    result = {
        "correct": correct,
        "attempted": len(run.records),
        "failed": len(unexpected),
        "metrics": {m["name"]: {"value": everything[m["name"]][0], "unit": m["unit"]}
                    for m in listed},
    }
    with open(f"{stem}.json", "w") as f:
        json.dump({"args": vars(args), "passes": pass_index, "env": env,
                   "metrics": {k: v[0] for k, v in everything.items()},
                   "failures": [list(f) for f in run.failures],
                   "mismatches": run.mismatches, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
