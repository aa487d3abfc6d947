"""LBFGS baseline runner producing the same trace format as the solvers."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .init_eval import RunState
from .numerics import lbfgs_minimize
from .objectives import HuberTV, PoissonObjective, RegularizedObjective
from .operators import in_field
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
    costs no extra evaluation. Once LBFGS holds its iterate (a stall, see
    `lbfgs_minimize`) the rows repeat its cost to the end of the budget, and
    one warning names the iteration where it was first held."""
    cost = RegularizedObjective(obj, reg)
    x0 = in_field(x0.values, obj.field)
    steps = lbfgs_minimize(lambda z: (cost.cost(z), cost.gradient(z)), x0)
    f = None
    held = False

    def step(k, x, warnings):
        nonlocal f, held
        x_new, f = next(steps)
        # a step that lowers the cost moves x, so equal values mean a held x
        if not held and np.array_equal(x_new, x):
            held = True
            warnings.append(f"iter {k}: LBFGS search found no lower cost; iterate held")
        return x_new

    return iterate(step, x0, n_iters, lambda z: f, x_true)
