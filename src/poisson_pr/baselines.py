"""LBFGS baseline runner producing the same trace format as the solvers."""

from __future__ import annotations

import time

from numpy.typing import NDArray

from .init_eval import RunState, TraceRow
from .numerics import lbfgs_minimize
from .objectives import HuberTV, PoissonObjective, RegularizedObjective
from .wf import _metrics


def run_lbfgs(
    obj: PoissonObjective,
    x0,
    n_iters: int,
    reg: HuberTV | None = None,
    memory: int = 10,
    x_true: NDArray | None = None,
) -> RunState:
    """LBFGS on f + beta R. Each trace row holds the cost LBFGS computed at
    the new iterate; its time counts the iterations only, not the trace.
    A non-finite cost, the start's included, ends the run with the last
    iterate LBFGS accepted."""
    cost = RegularizedObjective(obj, reg)
    state = RunState(x=x0.values.copy())
    elapsed = 0.0
    t0 = time.perf_counter()

    def record(z, f):
        nonlocal elapsed, t0
        elapsed += time.perf_counter() - t0
        nr, ps = _metrics(z, x_true)
        state.trace.append(TraceRow(len(state.trace) + 1, elapsed, f, nr, ps))
        state.x = z
        t0 = time.perf_counter()

    try:  # `record` keeps state.x at the last accepted iterate
        lbfgs_minimize(lambda z: (cost.cost(z), cost.gradient(z)), x0.values,
                       memory=memory, n_iters=n_iters, callback=record)
    except FloatingPointError as exc:
        state.status = f"terminated: {exc}"
    return state
