"""Configuration-driven experiment runner and benchmark suites.

Verbs:
  run    -- single experiment from a JSON config (plus dotted overrides)
  suite  -- preset comparison studies over a seed list

Exit codes: 0 success, 1 config or usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .admm import check_rho0, run_admm
from .baselines import run_lbfgs
from .init_eval import error_metrics, initialize
from .mm import CurvatureKind, run_mm
from .objectives import (
    DiffOp, GaussianObjective, HuberTV, PoissonObjective, RegularizedObjective,
)
from .operators import (
    CanonicalDftModel,
    FieldTag,
    MaskedDftModel,
    SignalVector,
    calibrate_scale,
    load_file_matrix,
    load_pgm,
    make_masks,
    random_gaussian_model,
    simulate_poisson,
)
from .phantoms import blocks, disk, random_complex
from .wf import StepKind, StepRule, TruncationRule, run_wf


class ConfigError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are config errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


MODEL_SEED = 12345
PHANTOM_KEYS = {"n": 64, "seed": 0}
# every config key and its default, by section ("" the whole config): the key
# naming the section's kind and its default (None, None where the section has
# one kind, kinds[None]), the keys every kind takes, and each kind's own keys.
# A default of ... means none: the key must be set. A section whose default is
# None (the regularizer, WF's truncation) is off where it is None.
SECTIONS = {
    "": (None, None, {}, {None: {
        "model": {}, "signal": {}, "mean_count": 0.25, "background": 0.1,
        "algorithm": {}, "regularizer": None, "n_iters": 100, "seed": 0,
        "init_iters": 300,
    }}),
    "model": ("variant", "dense", {}, {
        "dense": {"m": 512, "seed": MODEL_SEED},
        "masked_dft": {"masks": 21, "seed": MODEL_SEED, "exact_half_masks": False},
        "canonical_dft": {"pad_width": None, "fft_dims": None, "reference_path": None},
        "file": {"path": ...},
    }),
    "signal": ("source", "blocks", {"field": "real_nonnegative"}, {
        "blocks": PHANTOM_KEYS, "random_complex": PHANTOM_KEYS,
        "disk": {"dims": [16, 16]},
        "pgm": {"path": ...},
    }),
    "algorithm": ("kind", "wf", {"noise_model": "poisson"}, {
        "wf": {"step": "fisher", "truncation": None},
        "mm": {"curvature": "improved"},
        "admm": {"rho0": 8.0},
        "lbfgs": {},
    }),
    "algorithm.truncation": (None, None, {}, {None: {"a_h": ...}}),
    "regularizer": ("kind", "huber_tv", {}, {"huber_tv": {"beta": 32.0, "alpha": 0.1}}),
}

# the phases of `run_experiment` whose wall times summary.json gives: build
# (config checks, signal, calibrated model, regularizer, solver), simulate (the
# counts and the objective on them), init, solve (`wall_time_s`), and write (the
# initial point's cost and metrics, trace.csv and xhat.csv)
PHASES = ("build", "simulate", "init", "solve", "write")

_OBJECTIVE = {"poisson": PoissonObjective, "gaussian": GaussianObjective}


def _deep_update(base: dict, upd: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in upd.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_update(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _apply_override(cfg: dict, key: str, raw: str) -> None:
    parts = key.split(".")
    node = cfg
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            node[p] = {}
        node = node[p]
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw
    node[parts[-1]] = val


def fill_section(path: str, section) -> dict:
    """`section`, the config's section at the dotted `path` ("" the whole
    config), with its kind's defaults from SECTIONS and its own sections filled
    in; a ConfigError naming the key for a section that is not a JSON object,
    an unknown kind, a key the kind does not take or an unset key with no default."""
    kind_key, default_kind, shared, kinds = SECTIONS[path]
    prefix = f"{path}." if path else ""
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'the config'} must be a JSON object, not {section!r}")
    kind = section.get(kind_key, default_kind)
    if not isinstance(kind, (str, type(None))) or kind not in kinds:
        raise ConfigError(f"unknown {prefix}{kind_key} {kind!r}")
    defaults = {**({kind_key: kind} if kind_key else {}), **shared, **kinds[kind]}
    for key in section:
        if key not in defaults:
            of_kind = f" for {prefix}{kind_key} {kind}" if kind_key else ""
            raise ConfigError(f"unknown config key {prefix}{key}{of_kind}")
    filled = {}
    for key, default in defaults.items():
        name, value = prefix + key, copy.deepcopy(section.get(key, default))
        if value is ...:
            raise ConfigError(f"missing config key {name}")
        if name in SECTIONS and not (value is None and default is None):
            value = fill_section(name, value)
        filled[key] = value
    return filled


def _real(value, key: str, kind: str = "number") -> float:
    """value as a float; a ConfigError, naming `key` and `kind`, for a JSON
    boolean or string, which float() would take as 1.0 or parse."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{key} must be a {kind}, not {json.dumps(value)}")
    return float(value)


def _integer(value, key: str, positive: bool = False) -> int:
    """value as an int; a ConfigError unless it is a nonnegative integer (a
    positive one if `positive`), so that 2.0 passes and 2.5 is not truncated."""
    kind = ("positive" if positive else "nonnegative") + " integer"
    real = _real(value, key, kind)
    n = int(value)
    if n < (1 if positive else 0) or n != real:
        raise ConfigError(f"{key} must be a {kind}")
    return n


def _dims(value, key: str) -> tuple[int, int]:
    """value as two positive integers; a ConfigError, naming `key`, for
    anything but a list of two."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{key} must be a list of two positive integers, not {value!r}")
    return tuple(_integer(d, key, positive=True) for d in value)


def build_signal(cfg: dict) -> SignalVector:
    cfg = fill_section("signal", cfg)
    src = cfg["source"]
    try:
        field = FieldTag(cfg["field"])
    except ValueError:
        raise ConfigError(f"unknown signal.field {cfg['field']!r}")
    if src in ("blocks", "random_complex"):
        n = _integer(cfg["n"], "signal.n", positive=True)
        seed = _integer(cfg["seed"], "signal.seed")
        sig = (blocks if src == "blocks" else random_complex)(n, seed=seed)
    elif src == "disk":
        sig = disk(*_dims(cfg["dims"], "signal.dims"))
    else:  # pgm
        img = load_pgm(cfg["path"])
        sig = SignalVector(img.ravel().astype(complex), field=field, dims=img.shape)
    if field is not sig.field:
        sig = SignalVector(sig.values, field=field, dims=sig.dims)
    return sig


def build_model(cfg: dict, signal: SignalVector, background: float):
    cfg = fill_section("model", cfg)
    variant = cfg["variant"]
    n = signal.n
    if variant == "dense":
        m = _integer(cfg["m"], "model.m", positive=True)
        seed = _integer(cfg["seed"], "model.seed")
        return random_gaussian_model(m, n, seed=seed, background=background)
    if variant == "masked_dft":
        exact_half = cfg["exact_half_masks"]
        if not isinstance(exact_half, bool):
            raise ConfigError("model.exact_half_masks must be true or false")
        masks = make_masks(
            _integer(cfg["masks"], "model.masks", positive=True), n,
            seed=_integer(cfg["seed"], "model.seed"), exact_half=exact_half,
        )
        return MaskedDftModel(masks, background=background)
    if variant == "canonical_dft":
        if signal.dims is None:
            raise ConfigError("canonical_dft needs an image-shaped signal")
        if cfg["reference_path"] is None:
            ref = disk(*signal.dims).values.real.reshape(signal.dims)
        else:
            ref = load_pgm(cfg["reference_path"])
        return CanonicalDftModel(
            signal.dims, ref,
            pad_width=(None if cfg["pad_width"] is None
                       else _integer(cfg["pad_width"], "model.pad_width")),
            fft_dims=(None if cfg["fft_dims"] is None
                      else _dims(cfg["fft_dims"], "model.fft_dims")),
            background=background,
        )
    model = load_file_matrix(cfg["path"], background=background)  # the file variant
    if model.cols != n:
        raise ConfigError(f"file matrix has {model.cols} columns, signal has {n}")
    return model


def build_regularizer(cfg: dict | None, signal: SignalVector) -> HuberTV | None:
    if cfg is None:
        return None
    cfg = fill_section("regularizer", cfg)
    diff = DiffOp(signal.n, dims=signal.dims)
    return HuberTV(_real(cfg["beta"], "regularizer.beta"),
                   _real(cfg["alpha"], "regularizer.alpha"), diff)


def build_solver(alg: dict):
    """The configured solver and its keyword options, every option read and
    checked before any solve starts; `alg` is an algorithm section filled by
    `fill_section` (`run_experiment` fills it)."""
    kind = alg["kind"]
    if kind in ("mm", "admm") and alg["noise_model"] != "poisson":
        raise ConfigError(f"{kind} needs noise_model poisson")
    if kind == "wf":
        try:
            rule = StepRule(kind=StepKind(alg["step"]))
        except ValueError:
            raise ConfigError(f"unknown step rule {alg['step']!r}")
        if rule.kind is StepKind.EXACT_GAUSSIAN and alg["noise_model"] != "gaussian":
            raise ConfigError("the exact_gaussian step needs noise_model gaussian")
        trunc = alg["truncation"]
        if trunc is not None:
            trunc = TruncationRule(a_h=_real(trunc["a_h"], "algorithm.truncation.a_h"))
        return run_wf, {"rule": rule, "trunc": trunc}
    if kind == "mm":
        try:
            return run_mm, {"curvature": CurvatureKind(alg["curvature"])}
        except ValueError:
            raise ConfigError(f"unknown curvature {alg['curvature']!r}")
    if kind == "admm":
        return run_admm, {"rho0": check_rho0(_real(alg["rho0"], "algorithm.rho0"))}
    return run_lbfgs, {}


def _write_trace(path: Path, rows) -> None:
    """A trace CSV: the header, then each row's iteration and the `repr` of
    its time, cost, NRMSE and PSNR, so that every value reads back exactly."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iter", "time_s", "cost", "nrmse", "psnr"])
        writer.writerows([int(k)] + [repr(float(v)) for v in rest] for k, *rest in rows)


def run_experiment(cfg: dict, out_dir: str | Path) -> tuple[dict, np.ndarray]:
    """Run one configured experiment; write trace CSV, summary JSON, and the
    reconstructed signal; return the summary dict and the rows of the trace
    CSV as a float array (row 0 the initial point)."""
    marks = [time.perf_counter()]  # the start, then the end of each of PHASES
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a malformed value or a section that is not an object fails below, a config
    # error; what fails from `initialize` on is a numerical failure
    try:
        cfg = fill_section("", cfg)
        seed = _integer(cfg["seed"], "seed")
        background = _real(cfg["background"], "background")
        mean_count = _real(cfg["mean_count"], "mean_count")
        n_iters = _integer(cfg["n_iters"], "n_iters")
        init_iters = _integer(cfg["init_iters"], "init_iters")
        if not 0 < mean_count < np.inf or mean_count <= background:
            raise ConfigError("mean_count must be finite, positive and above the background")
        if background <= 0 and cfg["algorithm"]["kind"] == "mm":
            raise ConfigError("MM needs a positive background (no majorizer at b = 0)")

        signal = build_signal(cfg["signal"])
        model = build_model(cfg["model"], signal, background)
        calibrate_scale(model, signal.values, mean_count)
        noise_model = cfg["algorithm"]["noise_model"]
        if noise_model not in _OBJECTIVE:
            raise ConfigError(f"unknown noise model {noise_model!r}")
        reg = build_regularizer(cfg["regularizer"], signal)
        solver, options = build_solver(cfg["algorithm"])
        marks.append(time.perf_counter())
        meas = simulate_poisson(model, signal.values, seed)
        obj = _OBJECTIVE[noise_model](model, meas.y, field=signal.field)
        marks.append(time.perf_counter())
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc

    x0 = initialize(model, meas.y, field=signal.field, iters=init_iters, seed=seed)
    marks.append(time.perf_counter())
    state = solver(obj, x0, n_iters, reg=reg, x_true=signal.values, **options)
    marks.append(time.perf_counter())

    init_cost = RegularizedObjective(obj, reg).cost(x0.values)
    metrics = error_metrics(signal.values)  # the kernel of the solvers' trace
    rows = [(0, 0.0, init_cost, *metrics(x0.values))]
    rows += [(r.k, r.time_s, r.cost, r.nrmse, r.psnr) for r in state.trace]
    trace_path = out / "trace.csv"
    _write_trace(trace_path, rows)

    xhat_path = out / "xhat.csv"
    with open(xhat_path, "w") as f:
        for z in state.x:
            f.write(f"{z.real:.17g}:{z.imag:.17g}\n")
    marks.append(time.perf_counter())
    phase_s = dict(zip(PHASES, np.diff(marks).tolist()))
    final_nrmse, final_psnr = metrics(state.x)

    summary = {
        "version": __version__,
        "config": cfg,
        "status": state.status,
        "warnings": state.warnings,
        "wall_time_s": phase_s["solve"],
        "phase_wall_time_s": phase_s,
        "final_cost": state.trace[-1].cost if state.trace else init_cost,
        "final_nrmse": final_nrmse,
        "final_psnr": final_psnr,
        "metric_conventions": {
            "nrmse": "phase-corrected l2 error over ||x_true||",
            "psnr_peak": "max |x_true|, capped at 300 dB",
        },
        "trace_csv": str(trace_path),
        "xhat_csv": str(xhat_path),
    }
    with open(out / "summary.json", "w") as f:
        json.dump(summary, f, indent=2)
    return summary, np.array(rows, dtype=float)


SUITE_PRESETS = {
    "step-rules": [
        ("wf-fisher", {"algorithm": {"kind": "wf", "step": "fisher"}}),
        ("wf-backtracking", {"algorithm": {"kind": "wf", "step": "backtracking"}}),
        ("wf-exact-gaussian",
         {"algorithm": {"kind": "wf", "step": "exact_gaussian",
                        "noise_model": "gaussian"}}),
        ("lbfgs", {"algorithm": {"kind": "lbfgs"}}),
    ],
    "poisson-vs-gaussian": [
        ("wf-fisher-poisson", {"algorithm": {"kind": "wf", "step": "fisher"}}),
        ("wf-fisher-gaussian",
         {"algorithm": {"kind": "wf", "step": "fisher", "noise_model": "gaussian"}}),
        ("wf-fisher-poisson-tv",
         {"algorithm": {"kind": "wf", "step": "fisher"},
          "regularizer": {"kind": "huber_tv", "beta": 32.0, "alpha": 0.1}}),
    ],
    "reg-race": [
        (name, _deep_update(cfg, {"regularizer":
                                  {"kind": "huber_tv", "beta": 32.0, "alpha": 0.1}}))
        for name, cfg in [
            ("wf-fisher", {"algorithm": {"kind": "wf", "step": "fisher"}}),
            ("wf-backtracking", {"algorithm": {"kind": "wf", "step": "backtracking"}}),
            ("lbfgs", {"algorithm": {"kind": "lbfgs"}}),
            ("mm-improved", {"algorithm": {"kind": "mm", "curvature": "improved"}}),
            ("mm-max", {"algorithm": {"kind": "mm", "curvature": "max"}}),
            ("admm", {"algorithm": {"kind": "admm", "rho0": 8.0}}),
        ]
    ],
    # gradient truncation (Chen & Candes 2015) over its threshold a_h, and off
    "truncation": [
        (f"wf-fisher-a_h{a_h:g}",
         {"algorithm": {"kind": "wf", "step": "fisher", "truncation": {"a_h": a_h}}})
        for a_h in (1.0, 5.0, 10.0, 50.0, 100.0)
    ] + [("wf-fisher-untruncated",
          {"algorithm": {"kind": "wf", "step": "fisher", "truncation": None}})],
}


def run_suite(
    preset: str, seeds: list[int], out_dir: str | Path, base: dict | None = None
) -> dict:
    """Run a preset comparison over seeds; write median traces per algorithm
    and a combined final-metric comparison CSV."""
    if preset not in SUITE_PRESETS:
        raise ConfigError(f"unknown suite preset {preset!r}; "
                          f"available: {sorted(SUITE_PRESETS)}")
    if not seeds:
        raise ConfigError("suite needs a nonempty seed list")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = base or {}
    comparison = []
    results = {}
    for name, patch in SUITE_PRESETS[preset]:
        per_seed, traces = [], []
        for s in seeds:
            cfg = _deep_update(_deep_update(base, patch), {"seed": int(s)})
            summary, rows = run_experiment(cfg, out / name / f"seed{s}")
            per_seed.append(summary)
            traces.append(rows)
        # aggregate per-iteration medians over seeds
        n_rows = min(t.shape[0] for t in traces)
        stacked = np.stack([t[:n_rows] for t in traces])
        median = np.median(stacked, axis=0)
        agg_path = out / f"{name}_median_trace.csv"
        _write_trace(agg_path, median)
        finals = {
            "algorithm": name,
            "median_final_cost": float(np.median([p["final_cost"] for p in per_seed])),
            "median_final_nrmse": float(np.median([p["final_nrmse"] for p in per_seed])),
            "median_final_psnr": float(np.median([p["final_psnr"] for p in per_seed])),
            "median_wall_time_s": float(np.median([p["wall_time_s"] for p in per_seed])),
        }
        comparison.append(finals)
        results[name] = {"per_seed": per_seed, "median_trace_csv": str(agg_path)}
    with open(out / "comparison.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(comparison[0].keys()))
        writer.writeheader()
        writer.writerows(comparison)
    return results


def main(argv=None) -> int:
    parser = _ArgumentParser(prog="poisson-pr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="K=V", help="dotted-key config override")

    p_suite = sub.add_parser("suite", help="run a preset comparison study")
    p_suite.add_argument("--preset", required=True)
    p_suite.add_argument("--seed", type=int, action="append", default=[],
                         help="repeatable; seed list for the suite")
    p_suite.add_argument("--config", help="JSON base config file")
    p_suite.add_argument("--out", default="out")
    p_suite.add_argument("--override", action="append", default=[],
                         metavar="K=V")

    try:
        args = parser.parse_args(argv)
        cfg = {}
        if args.config:
            try:
                with open(args.config) as f:
                    cfg = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(str(exc)) from exc
            if not isinstance(cfg, dict):
                raise ConfigError("the config must be a JSON object")
        for ov in args.override:
            if "=" not in ov:
                raise ConfigError(f"bad override {ov!r}")
            k, _, v = ov.partition("=")
            _apply_override(cfg, k, v)
        if args.verb == "run":
            if args.seed is not None:
                cfg["seed"] = args.seed
            summary, _ = run_experiment(cfg, args.out)
            print(json.dumps({k: summary[k] for k in
                              ("final_cost", "final_nrmse", "final_psnr",
                               "wall_time_s", "status")}, indent=2))
            return 0 if summary["status"].startswith("ok") else 2
        if args.verb == "suite":
            seeds = args.seed or [0]
            run_suite(args.preset, seeds, args.out, base=cfg)
            print(f"suite {args.preset} complete: results in {args.out}")
            return 0
    except (ConfigError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, RuntimeError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
