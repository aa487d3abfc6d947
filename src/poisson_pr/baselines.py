"""LBFGS baseline runner producing the same trace format as the solvers."""

from __future__ import annotations

from numpy.typing import NDArray

from .init_eval import RunState
from .numerics import lbfgs_minimize
from .objectives import HuberTV, PoissonObjective, RegularizedObjective
from .wf import iterate


def run_lbfgs(
    obj: PoissonObjective,
    x0,
    n_iters: int,
    reg: HuberTV | None = None,
    x_true: NDArray | None = None,
) -> RunState:
    """LBFGS on f + beta R, one `wf.iterate` step per LBFGS iteration. Each
    trace row holds the cost LBFGS computed at the new iterate, so the trace
    costs no extra evaluation."""
    cost = RegularizedObjective(obj, reg)
    steps = lbfgs_minimize(lambda z: (cost.cost(z), cost.gradient(z)), x0.values)
    f = None

    def step(k, x, warnings):
        nonlocal f
        x_new, f = next(steps)
        return x_new

    return iterate(step, x0.values, n_iters, lambda z: f, x_true)
