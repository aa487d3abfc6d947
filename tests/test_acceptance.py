"""End-to-end acceptance checks: majorizer theory, solver behavior, operator
fidelity, initialization, and qualitative benchmark orderings.

Each test prints one PASS/FAIL line (bypassing capture) so the acceptance
status is visible in any pytest run.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import curvature_optimal_numeric, finite_diff_grad, psi_dot
from poisson_pr.admm import update_v_magnitude_bpos
from poisson_pr.init_eval import (
    finalize_init,
    initialize,
    nrmse,
    phase_correct,
    scale_fit,
    spectral_init,
)
from poisson_pr.mm import (
    CurvatureKind,
    curvature_improved,
    curvature_max,
    run_mm,
)
from poisson_pr.objectives import (
    DiffOp,
    GaussianObjective,
    HuberTV,
    PoissonObjective,
    RegularizedObjective,
)
from poisson_pr.operators import (
    CanonicalDftModel,
    DenseModel,
    FieldTag,
    MaskedDftModel,
    calibrate_scale,
    make_masks,
    random_gaussian_model,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks
from poisson_pr.wf import StepKind, StepRule, TruncationRule, run_wf

ARTIFACTS = Path(__file__).resolve().parent.parent / "out" / "acceptance"


_CAPFD = None


@pytest.fixture(autouse=True)
def _uncaptured_reports(capfd):
    # report() prints through capfd.disabled() so the one-line-per-criterion
    # status is visible even under pytest's fd-level capture
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def report(num: int, desc: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc}"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _phi(r, y, b):
    return (r * r + b) - y * np.log(r * r + b)


def _phi_dot(r, y, b):
    return 2.0 * r * (1.0 - y / (r * r + b))


def _sweep(n=10_000, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.uniform(1e-12, 20.0, n)
    b = rng.uniform(0.05, 5.0, n)
    s = rng.uniform(-10.0, 10.0, n)
    return y, b, s


def test_criterion_1_majorizer_domination():
    start = time.perf_counter()
    y, b, s = _sweep()
    c = curvature_improved(s, y, b)
    r = np.linspace(-20.0, 20.0, 401)
    # broadcast: rows are parameter triples, columns the r grid
    phi_r = _phi(r[None, :], y[:, None], b[:, None])
    surrogate = (
        _phi(s, y, b)[:, None]
        + _phi_dot(s, y, b)[:, None] * (r[None, :] - s[:, None])
        + 0.5 * c[:, None] * (r[None, :] - s[:, None]) ** 2
    )
    min_slack = float(np.min(surrogate - phi_r))
    elapsed = time.perf_counter() - start
    ok = min_slack >= -1e-9 and elapsed < 30.0
    report(1, f"majorizer domination over 10^4 triples x 401-pt grids "
              f"(min slack {min_slack:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_2_curvature_ordering():
    y, b, s = _sweep()
    c = curvature_improved(s, y, b)
    cmax = curvature_max(y, b)
    lower_ok = bool(np.all(c >= 2.0 - 1e-12))
    upper_ok = bool(np.all(c <= cmax + 1e-12))
    s3b = curvature_improved(np.sqrt(3.0 * b), y, b)
    s3b_ok = bool(np.max(np.abs(s3b - cmax)) <= 1e-12)
    rng = np.random.default_rng(1)
    idx = rng.choice(len(y), 300, replace=False)
    opt_ok = all(
        curvature_optimal_numeric(s[i], y[i], b[i]) <= curvature_improved(
            s[i], y[i], b[i]) + 1e-6
        for i in idx
    )
    ok = lower_ok and upper_ok and s3b_ok and opt_ok
    report(2, "curvature ordering 2 <= c_imp <= c_max, c_imp(sqrt(3b)) = c_max, "
              "c_opt <= c_imp", ok)


def test_criterion_3_fisher_consistency():
    rng = np.random.default_rng(2)
    n = 100_000
    failures = 0
    for _ in range(20):
        v = rng.uniform(0.05, 3.0)
        b = rng.uniform(0.05, 2.0)
        rate = v * v + b
        yy = rng.poisson(rate, n)
        score2 = np.abs(psi_dot(v, yy, b)) ** 2
        se = float(np.std(score2) / np.sqrt(n))
        expected = 4.0 * v * v / rate
        if abs(float(np.mean(score2)) - expected) > 4.0 * se:
            failures += 1
    report(3, f"Monte-Carlo score second moment matches the Fisher marginal "
              f"on 20 (v, b) pairs ({failures} outside 4 SE)", failures == 0)


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 9))
        m = 4 * n
        model = random_gaussian_model(m, n, seed=100 + trial, background=0.1)
        model.entries = model.entries.real.astype(complex)  # real-field instance
        x = rng.standard_normal(n)
        y = rng.poisson(1.0, m).astype(float)
        reg = HuberTV(2.0, 0.2, DiffOp(n))
        objs = [
            PoissonObjective(model, y, field=FieldTag.REAL),
            GaussianObjective(model, y, field=FieldTag.REAL),
            RegularizedObjective(
                PoissonObjective(model, y, field=FieldTag.REAL), reg),
        ]
        for obj in objs:
            g = obj.gradient(x.astype(complex)).real
            fd = finite_diff_grad(lambda z: obj.cost(z), x)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, rel)
    ok = worst < 1e-4
    report(4, f"analytic gradients match finite differences "
              f"(worst relative error {worst:.2e})", ok)


def test_criterion_5_mm_monotonicity_and_ordering():
    model = random_gaussian_model(256, 32, seed=2, background=0.1)
    rng = np.random.default_rng(52)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    calibrate_scale(model, x, 0.25)
    meas = simulate_poisson(model, x, 7)
    obj = PoissonObjective(model, meas.y)
    x0 = initialize(model, meas.y, field=FieldTag.COMPLEX, seed=7)
    states = {}
    mono_ok = True
    for kind in (CurvatureKind.MAX, CurvatureKind.IMPROVED):
        st = run_mm(obj, x0, 100, curvature=kind)
        costs = np.concatenate([[obj.cost(x0.values)], st.costs()])
        if not np.all(np.diff(costs) <= 1e-10 * np.abs(costs[:-1])):
            mono_ok = False
        states[kind] = st
    imp = states[CurvatureKind.IMPROVED].costs()
    mx = states[CurvatureKind.MAX].costs()
    order_ok = bool(np.all(imp <= mx + 1e-10 * np.abs(mx)))
    report(5, "MM cost monotone for both curvatures and improved <= max "
              "per iteration (N=32, M=256, mean 0.25)", mono_ok and order_ok)


def test_criterion_6_wf_fisher_noiseless_convergence():
    start = time.perf_counter()
    model = random_gaussian_model(128, 16, seed=2, background=0.1)
    rng = np.random.default_rng(61)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    calibrate_scale(model, x, 0.25)
    y = model.intensities(x)  # exact means as data
    obj = PoissonObjective(model, y)
    x0 = initialize(model, y, seed=3)
    st = run_wf(obj, x0, 500)
    c_true = obj.cost(x)
    gap = (st.costs() - c_true) / abs(c_true)
    elapsed = time.perf_counter() - start
    ok = bool(np.min(gap) < 1e-4) and elapsed < 10.0
    report(6, f"WF-Fisher reaches relative cost gap < 1e-4 on the "
              f"noiseless-mean instance (min gap {np.min(gap):.2e}, "
              f"{elapsed:.1f}s)", ok)


def test_criterion_7_poisson_vs_gaussian_quality():
    n, m, iters = 64, 4096, 300
    poisson_wins = 0
    plain, tv = [], []
    for seed in range(10):
        sig = blocks(n, seed=0)
        model = random_gaussian_model(m, n, seed=1000 + seed, background=0.1)
        calibrate_scale(model, sig.values, 0.25)
        meas = simulate_poisson(model, sig.values, 2000 + seed)
        x0 = initialize(model, meas.y, field=sig.field, seed=seed)
        reg = HuberTV(32.0, 0.1, DiffOp(n))
        pobj = PoissonObjective(model, meas.y, field=sig.field)
        gobj = GaussianObjective(model, meas.y, field=sig.field)
        p = run_wf(pobj, x0, iters, x_true=sig.values)
        g = run_wf(gobj, x0, iters, x_true=sig.values)
        r = run_wf(pobj, x0, iters, reg=reg, x_true=sig.values)
        p_err = nrmse(p.x, sig.values)
        g_err = nrmse(g.x, sig.values)
        r_err = nrmse(r.x, sig.values)
        if p_err <= g_err:
            poisson_wins += 1
        plain.append(p_err)
        tv.append(r_err)
    med_plain = float(np.median(plain))
    med_tv = float(np.median(tv))
    ok = poisson_wins >= 8 and med_tv < med_plain
    report(7, f"Poisson beats Gaussian on {poisson_wins}/10 seeds; Huber-TV "
              f"lowers median NRMSE {med_plain:.3f} -> {med_tv:.3f}", ok)


def _iters_to(costs, threshold):
    hit = np.nonzero(costs <= threshold)[0]
    return int(hit[0]) + 1 if hit.size else len(costs) + 1


def test_criterion_8_fisher_vs_backtracking_speed():
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    n, m, iters = 32, 256, 200
    results = {"unregularized": ([], []), "regularized": ([], [])}
    for seed in range(10):
        sig = blocks(n, seed=0)
        model = random_gaussian_model(m, n, seed=3000 + seed, background=0.1)
        calibrate_scale(model, sig.values, 0.25)
        meas = simulate_poisson(model, sig.values, 4000 + seed)
        obj = PoissonObjective(model, meas.y, field=sig.field)
        x0 = initialize(model, meas.y, field=sig.field, seed=seed)
        # moderate TV weight: regularization active but the data term dominant
        for label, reg in (("unregularized", None),
                           ("regularized", HuberTV(2.0, 0.1, DiffOp(n)))):
            fisher = run_wf(obj, x0, iters, rule=StepRule(StepKind.FISHER),
                            reg=reg)
            back = run_wf(obj, x0, iters,
                          rule=StepRule(StepKind.BACKTRACKING), reg=reg)
            # threshold: within 0.1% (of the initial-to-best decrease) of the
            # best cost either method reaches
            c0 = obj.cost(x0.values)
            if reg is not None:
                c0 += reg.beta * reg.value(x0.values)
            best = min(fisher.costs().min(), back.costs().min())
            threshold = best + 1e-3 * (c0 - best)
            results[label][0].append(_iters_to(fisher.costs(), threshold))
            results[label][1].append(_iters_to(back.costs(), threshold))
            for name, state in (("fisher", fisher), ("backtracking", back)):
                path = ARTIFACTS / f"speed_{label}_{name}_seed{seed}.csv"
                with open(path, "w", newline="") as f:
                    w = csv.writer(f)
                    w.writerow(["iter", "time_s", "cost", "nrmse", "psnr"])
                    for row in state.trace:
                        w.writerow([row.k, row.time_s, row.cost,
                                    row.nrmse, row.psnr])
    ok = True
    msgs = []
    for label, (fi, ba) in results.items():
        mf, mb = float(np.median(fi)), float(np.median(ba))
        msgs.append(f"{label}: fisher {mf:.0f} vs backtracking {mb:.0f} iters")
        if mf > mb:
            ok = False
    report(8, "iterations-to-threshold medians favor Fisher steps "
              f"({'; '.join(msgs)}; traces in {ARTIFACTS})", ok)


def test_criterion_9_admm_subproblem_exactness():
    rng = np.random.default_rng(9)
    n = 10_000
    t = rng.uniform(0.0, 10.0, n)
    y = rng.uniform(0.0, 20.0, n)
    b = rng.uniform(0.05, 5.0, n)
    rho = 4.0
    # quadratic (b = 0) residuals
    m0 = update_v_magnitude_bpos(t, y, np.zeros(n), rho)
    quad_resid = np.max(np.abs((2 + rho) * m0 * m0 - rho * t * m0 - 2 * y))
    # cubic (b > 0) residuals, normalized by the leading coefficient
    mb = update_v_magnitude_bpos(t, y, b, rho)
    cubic = ((2 + rho) * mb**3 - rho * t * mb**2
             + (2 * b - 2 * y + rho * b) * mb - rho * b * t)
    cubic_resid = np.max(np.abs(cubic) / (2 + rho))
    # root selection vs brute-force Lagrangian minimization over every
    # nonnegative real root from np.roots

    def lag(m, i):
        rate = m * m + b[i]
        return rate - y[i] * np.log(rate) + 0.5 * rho * (m - t[i]) ** 2

    select_ok = True
    for i in range(n):
        roots = np.roots([2 + rho, -rho * t[i], 2 * b[i] - 2 * y[i] + rho * b[i],
                          -rho * b[i] * t[i]])
        real = roots.real[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots))]
        best = min(lag(r, i) for r in real if r >= 0)
        if lag(mb[i], i) > best + 1e-12:
            select_ok = False
            break
    # continuity: the b > 0 path approaches the b = 0 path
    meps = update_v_magnitude_bpos(t, y, np.full(n, 1e-12), rho)
    cont = float(np.max(np.abs(meps - m0)))
    ok = quad_resid < 1e-9 and cubic_resid < 1e-9 and select_ok and cont < 1e-4
    report(9, f"ADMM magnitude updates exact (residuals {quad_resid:.1e}/"
              f"{cubic_resid:.1e}), selection optimal, b->0 continuity "
              f"{cont:.1e}", ok)


def test_criterion_10_adjoint_and_operator_fidelity():
    rng = np.random.default_rng(10)
    models = [
        ("dense", DenseModel(
            (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))))),
        ("gaussian", random_gaussian_model(10, 5, seed=4)),
        ("masked_dft", MaskedDftModel(make_masks(2, 4, seed=5))),
        ("canonical_dft", CanonicalDftModel((2, 3), np.ones((2, 2)))),
    ]
    adjoint_ok = True
    densify_ok = True
    for name, model in models:
        a = model.densify()
        for _ in range(5):
            x = rng.standard_normal(model.cols) + 1j * rng.standard_normal(model.cols)
            z = rng.standard_normal(model.rows) + 1j * rng.standard_normal(model.rows)
            lhs = np.vdot(z, model.apply_linear(x))
            rhs = np.vdot(model.adjoint(z), x)
            if abs(lhs - rhs) > 1e-10 * max(abs(lhs), 1.0):
                adjoint_ok = False
            if np.max(np.abs(model.apply_linear(x) - a @ x)) > 1e-12 * max(
                    1.0, float(np.max(np.abs(a @ x)))):
                densify_ok = False
            if np.max(np.abs(model.adjoint(z) - a.conj().T @ z)) > 1e-12 * max(
                    1.0, float(np.max(np.abs(a.conj().T @ z)))):
                densify_ok = False
    report(10, "all four forward-model variants pass adjoint and "
               "densified-matrix checks", adjoint_ok and densify_ok)


def test_criterion_11_initialization_and_phase():
    # diagonal-model analytic cases
    m = DenseModel(np.eye(4))
    y = np.array([1.0, 7.0, 2.0, 0.0])
    v, _ = spectral_init(m, y, iters=800)
    diag_ok = abs(abs(v[1]) - 1.0) < 1e-8
    m2 = DenseModel(np.eye(2))
    alpha, _ = scale_fit(m2, np.array([4.0, 99.0]), np.array([1.0, 0.0]))
    scale_ok = abs(alpha - 2.0) < 1e-12
    fin = finalize_init(np.array([-1.0, 2.0]), 2.0, FieldTag.REAL_NONNEGATIVE)
    fin_ok = np.allclose(fin, [2.0, 4.0])
    # phase removal to machine precision for 8 angles
    rng = np.random.default_rng(11)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    phase_ok = all(
        np.max(np.abs(phase_correct(np.exp(1j * th) * x, x) - x)) < 1e-12
        for th in np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    )
    ok = diag_ok and scale_ok and fin_ok and phase_ok
    report(11, "spectral init / scale fit / finalize analytic cases and "
               "global-phase removal", ok)


def test_criterion_12_truncation_study():
    model = random_gaussian_model(256, 32, seed=12, background=0.1)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    calibrate_scale(model, x, 0.25)
    meas = simulate_poisson(model, x, 13)
    obj = PoissonObjective(model, meas.y)
    x0 = initialize(model, meas.y, seed=14)
    finals = []
    for a_h in (1.0, 5.0, 10.0, 50.0, 100.0):
        st = run_wf(obj, x0, 100,
                    trunc=TruncationRule(a_h=a_h))
        finals.append(st.costs()[-1] if st.trace else obj.cost(x0.values))
    monotone = bool(np.all(np.diff(finals) <= 1e-8 * np.abs(np.array(finals[:-1]))))
    # report-only for the a_h sweep; the all-kept limit must match exactly
    plain = run_wf(obj, x0, 100)
    kept = run_wf(obj, x0, 100, trunc=TruncationRule(a_h=1e12))
    exact_ok = np.array_equal(plain.x, kept.x)
    sweep = (f"      truncation sweep final costs (a_h=1,5,10,50,100): "
             f"{[f'{c:.4f}' for c in finals]} "
             f"({'non-increasing' if monotone else 'not monotone, reported only'})")
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(sweep, flush=True)
    report(12, "all-kept truncation matches untruncated WF exactly "
               "(a_h sweep reported above)", exact_ok)
