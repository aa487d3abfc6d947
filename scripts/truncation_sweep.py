#!/usr/bin/env python3
"""Gradient-truncation sweep: final Poisson cost of truncated WF as a
function of the truncation threshold a_h, plus the all-kept sanity limit.

Measurement i is dropped from the gradient when its residual
|y_i - b_i - |(Ax)_i|^2| exceeds a_h times the mean residual times
|(Ax)_i| / (||Ax|| / sqrt(M)) (Chen & Candes 2015, with the rows scaled to
unit variance); as a_h grows the run approaches plain WF.
Writes one summary line per a_h value.
"""

import argparse

import numpy as np

from poisson_pr.init_eval import initialize, nrmse
from poisson_pr.objectives import PoissonObjective
from poisson_pr.operators import (
    calibrate_scale,
    random_gaussian_model,
    simulate_poisson,
)
from poisson_pr.phantoms import blocks
from poisson_pr.wf import TruncationRule, run_wf


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--m", type=int, default=512)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--n-iters", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a-h", type=float, nargs="+",
                   default=[1.0, 5.0, 10.0, 50.0, 100.0])
    return p.parse_args()


def main():
    args = parse_args()
    sig = blocks(args.n, seed=0)
    model = random_gaussian_model(args.m, args.n, seed=args.seed + 1,
                                  background=0.1)
    calibrate_scale(model, sig.values, 0.25)
    meas = simulate_poisson(model, sig.values, args.seed + 2)
    obj = PoissonObjective(model, meas.y, field=sig.field)
    x0 = initialize(model, meas.y, field=sig.field, seed=args.seed)

    print(f"{'a_h':>10}  {'final cost':>14}  {'NRMSE':>8}")
    for a_h in args.a_h:
        st = run_wf(obj, x0, args.n_iters,
                    trunc=TruncationRule(a_h=a_h))
        # an aggressive threshold can zero the whole gradient at the start,
        # in which case the run terminates with the initial cost
        final = st.costs()[-1] if st.trace else obj.cost(x0.values)
        print(f"{a_h:>10.1f}  {final:>14.6f}  "
              f"{nrmse(st.x, sig.values):>8.4f}  ({st.status})")

    plain = run_wf(obj, x0, args.n_iters)
    kept = run_wf(obj, x0, args.n_iters,
                  trunc=TruncationRule(a_h=1e12))
    same = np.array_equal(plain.x, kept.x)
    print(f"{'untrunc':>10}  {plain.costs()[-1]:>14.6f}  "
          f"{nrmse(plain.x, sig.values):>8.4f}  "
          f"(all-kept limit identical: {same})")
    return 0 if same else 2


if __name__ == "__main__":
    raise SystemExit(main())
