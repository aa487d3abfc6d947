"""Output checks for every solve, and the defects known at the time the
benchmark was defined.

A solve fails when it raises, ends with a status other than "ok", runs no
iteration, ends with a non-finite cost or iterate, ends outside the signal's
field, or (MM only) raises its cost by more than MM_RISE_RTOL between two
iterations. Every failure counts toward `failed_frac` and is named in the
output. A failure listed in KNOWN_DEFECTS does not make the run incorrect;
any other failure does. Fixing a known defect lowers `failed_frac`.
"""

from __future__ import annotations

import numpy as np

from poisson_pr.operators import FieldTag

# MM must not increase its cost: allowed rise per iteration, relative to
# max(1, |previous cost|). Rounding in the costs is around 1e-13 relative;
# acceptance criterion 5 allows 1e-10.
MM_RISE_RTOL = 1e-8

# (workload, instance, solver) -> failure kind, reported but not fixed here
KNOWN_DEFECTS = {
    # the unregularized update clamps the unconstrained minimizer of the
    # majorizer onto the nonnegative orthant, which need not lower the cost
    # when the clamp is active: on about one instance in 40, the cost rises
    # by up to ~2e-8 relative per iteration once converged
    ("paper-dense", "dense", "mm-improved"): "cost_rise",
    # cubic magnitude update: entries with t = 0 and y = 0 have only the
    # root m = 0, which the `roots > 0` filter rejects
    ("fft", "canonical-dft", "admm"): "raised",
    # cost rises from about outer iteration 14 on
    ("fft", "canonical-dft", "mm-improved"): "cost_rise",
    # LBFGS does not project onto the nonnegative orthant
    ("race-small", "dense-file", "lbfgs"): "outside_field",
    # with the Huber-TV inner solver (nonlinear CG, which clamps negatives
    # inside its loop), some instances creep up by up to ~2e-7 relative per
    # iteration once converged
    ("race-small", "dense-file", "mm-improved"): "cost_rise",
    ("race-small", "dense-file", "mm-max"): "cost_rise",
}


def check_solve(state, error, field: FieldTag, family: str, c0: float):
    """(failure kind, detail) of one solve, or None when every check passes."""
    if error is not None:
        return "raised", f"{type(error).__name__}: {error}"
    if state.status != "ok":
        return "status", state.status
    if not state.trace:
        return "no_iterations", "empty trace"
    costs = state.costs()
    x = state.x
    if not (np.all(np.isfinite(costs)) and np.all(np.isfinite(x))):
        return "non_finite", "non-finite cost or iterate"
    if field.is_real and np.any(x.imag != 0):
        return "outside_field", f"max |imag x| = {np.max(np.abs(x.imag)):.3g}"
    if field is FieldTag.REAL_NONNEGATIVE and np.min(x.real) < 0:
        return "outside_field", f"min x = {np.min(x.real):.3g}"
    if family.startswith("mm."):
        seq = np.concatenate([[c0], costs])
        allowed = MM_RISE_RTOL * np.maximum(1.0, np.abs(seq[:-1]))
        rises = np.nonzero(np.diff(seq) > allowed)[0]
        if rises.size:
            k = int(rises[0]) + 1
            return "cost_rise", (f"cost rises from iteration {k}: "
                                 f"{seq[k - 1]:.6g} -> {seq[k]:.6g}, "
                                 f"{seq[-1]:.6g} at the end")
    return None
