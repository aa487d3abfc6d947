"""CLI verbs, config handling, experiment artifacts, and suite aggregation."""

import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poisson_pr.cli import (
    SUITE_PRESETS,
    ConfigError,
    _apply_override,
    build_model,
    build_regularizer,
    build_signal,
    main,
    run_experiment,
    run_suite,
)
from poisson_pr.operators import FieldTag, save_file_matrix

TINY = {
    "model": {"variant": "dense", "m": 48, "seed": 1},
    "signal": {"source": "blocks", "n": 8, "field": "real_nonnegative", "seed": 0},
    "n_iters": 5,
    "init_iters": 50,
    "seed": 0,
}


def read_trace(path):
    with open(path) as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = [[float(v) for v in r] for r in reader]
    return header, rows


class TestOverrides:
    def test_dotted_key_json_value(self):
        cfg = {}
        _apply_override(cfg, "algorithm.step", "backtracking")
        _apply_override(cfg, "n_iters", "25")
        _apply_override(cfg, "regularizer.beta", "32.0")
        assert cfg["algorithm"]["step"] == "backtracking"
        assert cfg["n_iters"] == 25
        assert cfg["regularizer"]["beta"] == 32.0

    def test_non_json_stays_string(self):
        cfg = {}
        _apply_override(cfg, "signal.source", "blocks")
        assert cfg["signal"]["source"] == "blocks"


class TestBuilders:
    def test_unknown_signal_source(self):
        with pytest.raises(ConfigError):
            build_signal({"source": "nope"})

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            build_signal({"source": "blocks", "field": "quaternion"})

    @pytest.mark.parametrize("field", [FieldTag.COMPLEX, FieldTag.REAL])
    def test_pgm_signal_takes_the_configured_field(self, tmp_path, field):
        # a pgm image ran on the nonnegative orthant whatever signal.field said
        (tmp_path / "x.pgm").write_text("P2\n2 2\n255\n0 64 128 255\n")
        sig = build_signal({"source": "pgm", "path": str(tmp_path / "x.pgm"),
                            "field": field.value})
        assert sig.field is field and sig.dims == (2, 2)
        np.testing.assert_array_equal(sig.values, np.array([0, 64, 128, 255]) / 255)

    def test_unknown_model_variant(self):
        sig = build_signal({"source": "blocks", "n": 8})
        with pytest.raises(ConfigError):
            build_model({"variant": "nope"}, sig, 0.1)

    def test_unknown_regularizer(self):
        sig = build_signal({"source": "blocks", "n": 8})
        with pytest.raises(ConfigError):
            build_regularizer({"kind": "nope"}, sig)

    def test_masked_dft_model(self):
        sig = build_signal({"source": "blocks", "n": 8})
        m = build_model({"variant": "masked_dft", "masks": 3}, sig, 0.1)
        assert m.rows == 3 * 15

    def test_canonical_dft_needs_image(self):
        sig = build_signal({"source": "blocks", "n": 8})
        with pytest.raises(ConfigError):
            build_model({"variant": "canonical_dft"}, sig, 0.1)


class TestRunExperiment:
    def test_zero_iterations_trace_has_init_row_only(self, tmp_path):
        cfg = dict(TINY, n_iters=0)
        run_experiment(cfg, tmp_path)
        header, rows = read_trace(tmp_path / "trace.csv")
        assert header == ["iter", "time_s", "cost", "nrmse", "psnr"]
        assert len(rows) == 1
        assert rows[0][0] == 0

    def test_deterministic_except_timing(self, tmp_path):
        run_experiment(TINY, tmp_path / "a")
        run_experiment(TINY, tmp_path / "b")
        _, ra = read_trace(tmp_path / "a" / "trace.csv")
        _, rb = read_trace(tmp_path / "b" / "trace.csv")
        a = np.array(ra)
        b = np.array(rb)
        # all columns except the time column agree bitwise
        assert np.array_equal(a[:, [0, 2, 3, 4]], b[:, [0, 2, 3, 4]])
        xa = (tmp_path / "a" / "xhat.csv").read_text()
        xb = (tmp_path / "b" / "xhat.csv").read_text()
        assert xa == xb

    def test_summary_contents(self, tmp_path):
        summary, _ = run_experiment(TINY, tmp_path)
        assert summary["status"] == "ok"
        with open(tmp_path / "summary.json") as f:
            on_disk = json.load(f)
        assert on_disk["config"]["n_iters"] == 5
        assert on_disk["config"]["mean_count"] == 0.25
        assert on_disk["config"]["background"] == 0.1
        assert "metric_conventions" in on_disk
        assert "version" in on_disk

    def test_summary_phase_wall_times(self, tmp_path):
        summary, _ = run_experiment(TINY, tmp_path)
        with open(tmp_path / "summary.json") as f:
            phases = json.load(f)["phase_wall_time_s"]
        assert list(phases) == ["build", "simulate", "init", "solve", "write"]
        assert all(np.isfinite(t) and t >= 0.0 for t in phases.values())
        assert phases["solve"] == summary["wall_time_s"]

    def test_xhat_roundtrip(self, tmp_path):
        run_experiment(TINY, tmp_path)
        lines = (tmp_path / "xhat.csv").read_text().strip().splitlines()
        assert len(lines) == TINY["signal"]["n"]
        for ln in lines:
            re, im = ln.split(":")
            float(re), float(im)

    def test_all_algorithms_run(self, tmp_path):
        for alg in (
            {"kind": "wf", "step": "fisher"},
            {"kind": "wf", "step": "backtracking"},
            {"kind": "mm", "curvature": "improved"},
            {"kind": "admm", "rho0": 8.0},
            {"kind": "lbfgs"},
        ):
            cfg = dict(TINY, algorithm=alg, n_iters=3)
            summary, _ = run_experiment(cfg, tmp_path / alg["kind"])
            assert summary["status"] == "ok", alg

    def test_summary_metrics_are_the_last_trace_row(self, tmp_path):
        # summary.json's final metrics are those of the trace's last row, bit
        # for bit, on every solver; they were rounded apart on some runs
        for kind in ("wf", "mm", "admm", "lbfgs"):
            for seed in range(4):
                cfg = {"model": {"variant": "dense", "m": 256},
                       "signal": {"source": "blocks", "n": 32},
                       "algorithm": {"kind": kind}, "n_iters": 20, "seed": seed}
                out = tmp_path / f"{kind}{seed}"
                summary, rows = run_experiment(cfg, out)
                _, written = read_trace(out / "trace.csv")
                with open(out / "summary.json") as f:
                    on_disk = json.load(f)
                for last in (rows[-1], written[-1]):
                    assert on_disk["final_cost"] == last[2], (kind, seed)
                    assert on_disk["final_nrmse"] == last[3], (kind, seed)
                    assert on_disk["final_psnr"] == last[4], (kind, seed)

    def test_summary_config_holds_the_keys_the_run_read(self, tmp_path):
        # a masked-DFT run recorded the dense model's "m": 512, never read
        cfg = {"model": {"variant": "masked_dft", "masks": 2}, "signal": {"n": 8},
               "n_iters": 2, "init_iters": 20}
        summary, _ = run_experiment(cfg, tmp_path)
        with open(tmp_path / "summary.json") as f:
            on_disk = json.load(f)["config"]
        assert on_disk == summary["config"]
        assert on_disk["model"] == {"variant": "masked_dft", "masks": 2, "seed": 12345,
                                    "exact_half_masks": False}
        assert set(on_disk["signal"]) == {"source", "field", "n", "seed"}
        assert set(on_disk["algorithm"]) == {"kind", "noise_model", "step", "truncation"}
        assert on_disk["regularizer"] is None

    def test_regularized_run(self, tmp_path):
        cfg = dict(TINY, regularizer={"kind": "huber_tv", "beta": 4.0, "alpha": 0.1})
        summary, _ = run_experiment(cfg, tmp_path)
        assert summary["status"] == "ok"

    def test_file_matrix_model(self, tmp_path):
        rng = np.random.default_rng(0)
        save_file_matrix(tmp_path / "a.csv",
                         rng.standard_normal((48, 8)) + 1j * rng.standard_normal((48, 8)))
        cfg = dict(TINY, model={"variant": "file", "path": str(tmp_path / "a.csv")})
        summary, _ = run_experiment(cfg, tmp_path / "o")
        assert summary["status"] == "ok"

    def test_pgm_signal_and_reference(self, tmp_path):
        (tmp_path / "x.pgm").write_text("P2\n4 4\n255\n" + " ".join(
            str(v) for v in [0, 64, 128, 255] * 4) + "\n")
        (tmp_path / "r.pgm").write_text("P2\n2 4\n255\n" + "255 0 " * 4 + "\n")
        signal = {"source": "pgm", "path": str(tmp_path / "x.pgm")}
        for name, model in [
            ("dense", {"variant": "dense", "m": 96, "seed": 1}),
            ("canonical", {"variant": "canonical_dft",
                           "reference_path": str(tmp_path / "r.pgm")}),
        ]:
            summary, _ = run_experiment(dict(TINY, signal=signal, model=model),
                                        tmp_path / name)
            assert summary["status"] == "ok", name
            assert len((tmp_path / name / "xhat.csv").read_text().splitlines()) == 16

    def test_unknown_noise_model(self, tmp_path):
        cfg = dict(TINY, algorithm={"kind": "wf", "noise_model": "laplace"})
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path)


class TestRunSuite:
    def test_empty_seed_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite("step-rules", [], tmp_path)

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite("nope", [0], tmp_path)

    def test_single_seed_aggregation_is_identity(self, tmp_path):
        base = dict(TINY, n_iters=3)
        results = run_suite("poisson-vs-gaussian", [0], tmp_path, base=base)
        name = "wf-fisher-poisson"
        _, per_seed = read_trace(tmp_path / name / "seed0" / "trace.csv")
        _, median = read_trace(tmp_path / f"{name}_median_trace.csv")
        a, b = np.array(per_seed), np.array(median)
        assert np.array_equal(a[:, [0, 2, 3, 4]], b[:, [0, 2, 3, 4]])
        assert (tmp_path / "comparison.csv").exists()
        assert set(results) == {"wf-fisher-poisson", "wf-fisher-gaussian",
                                "wf-fisher-poisson-tv"}

    def test_multi_seed_median_recomputed(self, tmp_path):
        base = dict(TINY, n_iters=2)
        run_suite("poisson-vs-gaussian", [0, 1, 2], tmp_path, base=base)
        name = "wf-fisher-poisson"
        traces = [np.array(read_trace(tmp_path / name / f"seed{s}" / "trace.csv")[1])
                  for s in (0, 1, 2)]
        _, med = read_trace(tmp_path / f"{name}_median_trace.csv")
        med = np.array(med)
        manual = np.median(np.stack(traces), axis=0)
        assert np.allclose(med[:, 2:], manual[:, 2:], rtol=0, atol=0)

    def test_median_traces_are_the_medians_of_the_written_traces(self, tmp_path):
        # every column, wall times included, so both sides come from one run
        seeds = [0, 1, 2]
        run_suite("reg-race", seeds, tmp_path, base=dict(TINY, n_iters=3))
        for name, _ in SUITE_PRESETS["reg-race"]:
            traces = [np.array(read_trace(tmp_path / name / f"seed{s}" / "trace.csv")[1])
                      for s in seeds]
            n_rows = min(len(t) for t in traces)
            manual = np.median(np.stack([t[:n_rows] for t in traces]), axis=0)
            _, med = read_trace(tmp_path / f"{name}_median_trace.csv")
            np.testing.assert_array_equal(np.array(med), manual)


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        rc = main([
            "run", "--out", str(tmp_path / "o"), "--seed", "0",
            "--override", "model.m=48",
            "--override", "signal.n=8", "--override", "n_iters=3",
            "--override", "init_iters=50",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "ok"

    def test_bad_override_exit_one(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path), "--override", "garbage"])
        assert rc == 1

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_bad_config_value_exit_one(self, tmp_path, capsys):
        for i, cfg in enumerate([
            {"signal": {"source": "nope"}},
            dict(TINY, background=0.0, algorithm={"kind": "mm"}),
            dict(TINY, mean_count=0.05, background=0.1),
            dict(TINY, n_iters=-3),
        ]):
            cfgp = tmp_path / f"cfg{i}.json"
            cfgp.write_text(json.dumps(cfg))
            rc = main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
            assert rc == 1, cfg

    def test_suite_verb(self, tmp_path, capsys):
        rc = main([
            "suite", "--preset", "poisson-vs-gaussian", "--seed", "0",
            "--out", str(tmp_path),
            "--override", "model.m=48",
            "--override", "signal.n=8", "--override", "n_iters=2",
            "--override", "init_iters=50",
        ])
        assert rc == 0
        assert (tmp_path / "comparison.csv").exists()


def one_config_error_line(err):
    return err.startswith("config error:") and err.count("\n") == 1


class TestExitContract:
    """0 success, 1 config or usage error, 2 numerical failure, and never a
    traceback."""

    @pytest.mark.parametrize("cfg", [
        {"seed": "x"},
        {"model": {"m": "abc"}},
        {"regularizer": {"alpha": 0}},
        {"background": -1},
        {"signal": {"source": "disk", "dims": [4]}},
        [TINY],
        {"algorithm": {"step": "nope"}},
        {"algorithm": {"kind": "mm", "curvature": "nope"}},
        {"algorithm": {"kind": "nope"}},
        # these ran to exit 0 or 2, or ended in a traceback
        {"mean_count": float("nan")},
        {"mean_count": float("inf")},
        {"algorithm": {"kind": "admm", "rho0": 0}},
        {"algorithm": {"kind": "admm", "rho0": -1}},
        {"algorithm": {"kind": "admm", "rho0": float("nan")}},
        {"algorithm": {"kind": "admm", "rho0": float("inf")}},
        {"regularizer": {"beta": float("nan")}},
        {"regularizer": {"beta": float("inf")}},
        {"regularizer": {"alpha": float("nan")}},
        {"algorithm": {"truncation": {"a_h": -1}}},
        {"algorithm": {"truncation": {"a_h": float("nan")}}},
        {"init_iters": -1},
        {"n_iters": 2.5},
        # these were ignored without a word
        {"regularizer": {"betaa": 5}},
        {"algorithm": {"stepp": "backtracking"}},
        {"model": {"n": 8}},
        {"algorithm": {"truncation": {}}},
        {"n_iter": 3},
        # these ran to exit 0 doing something other than what was asked: MM
        # and ADMM solve the Poisson model whatever noise_model says, only WF
        # truncates, and the string "no" turned exact-half masks on
        {"algorithm": {"kind": "mm", "noise_model": "gaussian"}},
        {"algorithm": {"kind": "admm", "noise_model": "gaussian"}},
        {"algorithm": {"kind": "mm", "truncation": {"a_h": 5}}},
        {"model": {"variant": "masked_dft", "exact_half_masks": "no"}},
        # another kind's option, which the configured kind never reads
        {"algorithm": {"kind": "wf", "curvature": "max"}},
        {"algorithm": {"kind": "mm", "rho0": 2}},
        {"algorithm": {"kind": "lbfgs", "step": "backtracking"}},
    ], ids=["seed", "model-m", "alpha", "background", "disk-dims", "list",
            "step", "curvature", "kind",
            "mean-nan", "mean-inf", "rho0-0", "rho0-neg", "rho0-nan", "rho0-inf",
            "beta-nan", "beta-inf", "alpha-nan", "a_h-neg", "a_h-nan",
            "init-iters-neg", "n-iters-fraction",
            "regularizer-betaa", "algorithm-stepp", "model-n", "truncation-empty",
            "n_iter", "mm-gaussian", "admm-gaussian", "mm-truncation",
            "exact-half-string", "wf-curvature", "mm-rho0", "lbfgs-step"])
    def test_malformed_config_exits_one(self, tmp_path, capsys, cfg):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1
        assert one_config_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("key, value", [
        ("seed", "1.5"), ("model.m", "48.7"), ("model.seed", "1.5"), ("model.masks", "2.5"),
        ("signal.n", "8.5"), ("signal.seed", "0.5"), ("signal.dims", "[4.5,4]"),
        ("model.pad_width", "2.5"),
    ])
    def test_fractional_integers_exit_one(self, tmp_path, capsys, key, value):
        # a fractional count or seed is an error, not truncated: model.m=48.7
        # must not run m = 48 while summary.json records 48.7
        # each case sets only the keys of its own model variant and signal
        # source; the others run a 48x8 dense model on blocks
        context = {"model.masks": ["model.variant=masked_dft", "signal.n=8"],
                   "signal.dims": ["model.m=48", "signal.source=disk"],
                   "model.pad_width": ["signal.source=disk", "signal.dims=[8,8]",
                                       "model.variant=canonical_dft"]}
        argv = ["run", "--out", str(tmp_path / "o")]
        for kv in [*context.get(key, ["model.m=48", "signal.n=8"]), "n_iters=2",
                   "init_iters=20", f"{key}={value}"]:
            argv += ["--override", kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert one_config_error_line(err) and f"{key} must be a" in err

    @pytest.mark.parametrize("key, value", [
        ("n_iters", "true"), ("n_iters", '"5"'), ("seed", "false"),
        ("mean_count", '"0.5"'), ("mean_count", "true"), ("background", "true"),
        ("algorithm.rho0", "true"), ("algorithm.rho0", '"8"'),
        ("regularizer.beta", '"2"'), ("regularizer.alpha", "true"),
        ("algorithm.truncation.a_h", '"5"'),
    ])
    def test_boolean_and_string_numbers_exit_one(self, tmp_path, capsys, key, value):
        # float() and int() take true as 1 and parse "5": n_iters=true ran one
        # iteration, rho0=true ran at rho 1, and background=true failed on
        # mean_count
        context = {"algorithm.rho0": ["algorithm.kind=admm"],
                   "regularizer.beta": ["regularizer.kind=huber_tv"],
                   "regularizer.alpha": ["regularizer.kind=huber_tv"]}
        argv = ["run", "--out", str(tmp_path / "o")]
        for kv in ["model.m=48", "signal.n=8", "n_iters=2", "init_iters=20",
                   *context.get(key, []), f"{key}={value}"]:
            argv += ["--override", kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert one_config_error_line(err) and f"{key} must be a" in err

    @pytest.mark.parametrize("key, value", [("pad_width", "-6"), ("fft_dims", "[8]")])
    def test_malformed_canonical_model_exits_one(self, tmp_path, capsys, key, value):
        # pad_width -6 on an 8x8 disk overlapped x and the reference without a
        # word; a one-entry fft_dims ended in an IndexError traceback
        rc = main(["run", "--out", str(tmp_path / "o"),
                   "--override", "signal.source=disk", "--override", "signal.dims=[8,8]",
                   "--override", "model.variant=canonical_dft",
                   "--override", f"model.{key}={value}",
                   "--override", "n_iters=2", "--override", "init_iters=20"])
        assert rc == 1
        err = capsys.readouterr().err
        assert one_config_error_line(err) and key in err

    @pytest.mark.parametrize("key, value, rc", [
        ("model.fft_dims", "40", 1), ("model.fft_dims", "[40.5,40]", 1),
        ("model.fft_dims", '["40",40]', 1), ("model.fft_dims", "[40.0,40]", 0),
        ("signal.dims", "[8]", 1), ("signal.dims", "8", 1), ("signal.dims", "[8,8,8]", 1),
    ])
    def test_dims_are_two_positive_integers(self, tmp_path, capsys, key, value, rc):
        # these exited 1 with a message naming no key, and [40.0,40] was
        # refused although every other integer key takes 40.0
        argv = ["run", "--out", str(tmp_path / "o")]
        for kv in ["signal.source=disk", "signal.dims=[8,8]", "model.variant=canonical_dft",
                   "n_iters=2", "init_iters=20", f"{key}={value}"]:
            argv += ["--override", kv]
        assert main(argv) == rc
        err = capsys.readouterr().err
        if rc == 0:
            assert err == ""
        else:
            assert one_config_error_line(err) and f"{key} must be a" in err

    @pytest.mark.parametrize("overrides, message", [
        (["model.variant=masked_dft", "signal.n=8", "model.m=7.5"],
         "unknown config key model.m for model.variant masked_dft"),
        (["model.m=48", "signal.n=8", "signal.dims=[8]"],
         "unknown config key signal.dims for signal.source blocks"),
        (["model.m=48", "signal.source=disk", "signal.n=-3"],
         "unknown config key signal.n for signal.source disk"),
        (["model.m=48", "signal.n=8", "model.path=/nope"],
         "unknown config key model.path for model.variant dense"),
        (["model=5"], "model must be a JSON object"),
        (["signal=[1]"], "signal must be a JSON object"),
        (["regularizer=5"], "regularizer must be a JSON object"),
        (["algorithm.truncation=5"], "algorithm.truncation must be a JSON object"),
        (["model.variant=file"], "missing config key model.path"),
        (["model.m=48", "signal.source=pgm"], "missing config key signal.path"),
    ], ids=["masked-m", "blocks-dims", "disk-n", "dense-path", "model-5", "signal-list",
            "regularizer-5", "truncation-5", "file-no-path", "pgm-no-path"])
    def test_config_errors_name_the_key(self, tmp_path, capsys, overrides, message):
        # the first four ran to exit 0, the key never read; the next four
        # named no section ("'int' object has no attribute 'get'"), and the
        # missing paths were named only as 'path'
        argv = ["run", "--out", str(tmp_path / "o")]
        for kv in ["n_iters=2", "init_iters=20", *overrides]:
            argv += ["--override", kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert one_config_error_line(err) and message in err

    def test_malformed_pgm_header_exits_one(self, tmp_path, capsys):
        # a header of fewer than four tokens ended in an IndexError traceback
        (tmp_path / "x.pgm").write_text("P2\n4")
        assert main(["run", "--out", str(tmp_path / "o"),
                     "--override", "signal.source=pgm",
                     "--override", f"signal.path={tmp_path / 'x.pgm'}"]) == 1
        err = capsys.readouterr().err
        assert one_config_error_line(err) and "PGM header 'P2 4'" in err
        assert "Traceback" not in err

    def test_file_matrix_column_mismatch_exits_one(self, tmp_path, capsys):
        save_file_matrix(tmp_path / "a.csv", np.ones((48, 6)))
        assert main(["run", "--out", str(tmp_path / "o"),
                     "--override", "model.variant=file",
                     "--override", f"model.path={tmp_path / 'a.csv'}",
                     "--override", "signal.n=8"]) == 1
        err = capsys.readouterr().err
        assert one_config_error_line(err) and "6 columns" in err

    @pytest.mark.parametrize("argv", [["run", "--seed", "abc"], ["nope"], ["suite"], []])
    def test_usage_error_exits_one(self, capsys, argv):
        assert main(argv) == 1
        assert one_config_error_line(capsys.readouterr().err)

    def test_unusable_out_dir_exits_one(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["run", "--out", str(tmp_path / "file" / "o")]) == 1
        assert one_config_error_line(capsys.readouterr().err)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["wf", "lbfgs"])
    def test_zero_gradient_start_exits_two(self, tmp_path, capsys, kind):
        # 16 counts at mean 0.11 from seed 2 fit the initializer's scale to 0,
        # where the Poisson gradient vanishes
        cfg = dict(TINY, model=dict(TINY["model"], m=16), mean_count=0.11, seed=2,
                   algorithm={"kind": kind})
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(cfg))
        with pytest.warns(UserWarning):
            rc = main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["status"] == "terminated: zero gradient"


NOISE_MODELS = st.sampled_from(["poisson", "gaussian"])
FIELDS = st.sampled_from(["real", "complex", "real_nonnegative"])
# a tiny valid config, then up to two values replaced by mistyped, unknown or
# out-of-range ones through --override
FUZZ_CONFIG = st.fixed_dictionaries({
    # each model variant and signal source with the keys it reads
    "model": st.one_of(
        st.fixed_dictionaries({"variant": st.just("dense"), "m": st.integers(1, 16),
                               "seed": st.integers(0, 3)}),
        st.fixed_dictionaries({"variant": st.just("masked_dft"), "masks": st.integers(1, 3),
                               "seed": st.integers(0, 3)}),
        st.fixed_dictionaries({"variant": st.just("canonical_dft")}),
    ),
    "signal": st.one_of(
        st.fixed_dictionaries({"source": st.sampled_from(["random_complex", "blocks"]),
                               "n": st.integers(1, 4), "field": FIELDS}),
        st.fixed_dictionaries({"source": st.just("disk"), "field": FIELDS,
                               "dims": st.lists(st.integers(1, 2), min_size=2, max_size=2)}),
    ),
    # each kind with the options it reads
    "algorithm": st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("wf"), "noise_model": NOISE_MODELS,
            "step": st.sampled_from(["fisher", "backtracking", "exact_gaussian"]),
            "truncation": st.one_of(st.none(),
                                    st.fixed_dictionaries({"a_h": st.floats(0.5, 20.0)})),
        }),
        st.fixed_dictionaries({"kind": st.just("mm"), "noise_model": NOISE_MODELS,
                               "curvature": st.sampled_from(["improved", "max"])}),
        st.fixed_dictionaries({"kind": st.just("admm"), "noise_model": NOISE_MODELS,
                               "rho0": st.floats(0.5, 16.0)}),
        st.fixed_dictionaries({"kind": st.just("lbfgs"), "noise_model": NOISE_MODELS}),
    ),
    "regularizer": st.one_of(st.none(), st.fixed_dictionaries({
        "beta": st.floats(0.0, 8.0), "alpha": st.floats(0.01, 1.0)})),
    "mean_count": st.floats(0.2, 2.0),
    "background": st.floats(0.0, 0.2),
    "n_iters": st.integers(0, 2),
    "init_iters": st.integers(0, 5),
    "seed": st.integers(0, 3),
})
FUZZ_KEYS = [
    "model", "model.variant", "model.m", "model.masks", "model.seed",
    "signal", "signal.source", "signal.n", "signal.dims", "signal.field", "signal.seed",
    "algorithm", "algorithm.kind", "algorithm.step", "algorithm.noise_model",
    "algorithm.curvature", "algorithm.rho0", "algorithm.truncation",
    "algorithm.truncation.a_h", "regularizer", "regularizer.kind", "regularizer.beta",
    "regularizer.alpha", "mean_count", "background", "n_iters", "init_iters", "seed",
    "unknown", "model.unknown",
]
FUZZ_EDITS = st.lists(st.tuples(st.sampled_from(FUZZ_KEYS),
                                st.sampled_from(["abc", None, [1], {}, -1, 0, 0.5, True,
                                                 float("nan"), float("inf")])),
                      max_size=2)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=FUZZ_CONFIG, edits=FUZZ_EDITS, as_list=st.booleans())
def test_fuzzed_config_exit_code(tmp_path, cfg, edits, as_list):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps([cfg] if as_list else cfg))
    argv = ["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]
    for key, value in edits:
        argv += ["--override", f"{key}={json.dumps(value)}"]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) in (0, 1, 2)
