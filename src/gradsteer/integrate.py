"""Fixed-step classical RK4 of the controlled training flow theta' = u -
grad J(theta), and the exact adjoint of that discrete scheme.

The control u enters by stage: stage 2j is node j and stage 2j + 1 the
midpoint of interval j. A forward step from node j reads u at stages 2j,
2j+1, 2j+1 and 2j+2 and keeps the states of stages 2-4; `integrate_backward`
runs the transposed step along them (Hager 2000, Numer. Math. 87), exact for
the forward sweep's numbers at any step size. Both sweeps step on Python
floats, one array row in or out at a time: with a few parameters, numpy's
per-call overhead would cost more than the arithmetic. The forward sweep's
`grad` takes and returns p floats. The backward sweep fetches the Hessians
of a block of steps' stage points in one numpy pass (`models.Hessian`), then
walks the block on floats. The forward step, `rk4_steps`, also runs K sweeps
at once on lane arrays (`integrate_lanes`).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .core import Array, TimeGrid, Trajectory, trapezoid_weights

# backward steps whose stage Hessians are fetched in one pass: long enough to
# amortise numpy's per-call cost, short enough that the block's Hessians,
# held as Python floats, add little to a sweep's peak memory
HESSIAN_BLOCK = 128


class DivergenceError(RuntimeError):
    """A sweep's state or costate stopped being finite at time t and step
    `step`, or a cost or report residual did (t and step None)."""

    def __init__(self, t: Optional[float], step: Optional[int], what: str):
        self.t = t
        self.step = step
        self.what = what
        where = "" if step is None else f" at t={t:.6g} (step {step})"
        super().__init__(f"non-finite {what}{where}")


def rk4_steps(grad: Callable, stage_u, y, h: float):
    """RK4 steps of theta' = u - grad(theta) from y with step h, along
    `stage_u`, an iterable of the 2N + 1 stage controls in stage order:
    yields each step's (y2, y3, y4, next y). y, each control and grad's
    argument and value are sequences of the same length: p floats, or one
    (p, K) array of K lanes, each of which runs the float arithmetic in its
    order, bit for bit."""
    half, sixth = 0.5 * h, h / 6.0
    stage_u = iter(stage_u)
    u_node = next(stage_u)
    for u_mid in stage_u:
        u_first, u_node = u_node, next(stage_u)
        k1 = [u - g for u, g in zip(u_first, grad(y))]
        y2 = [a + half * k for a, k in zip(y, k1)]
        k2 = [u - g for u, g in zip(u_mid, grad(y2))]
        y3 = [a + half * k for a, k in zip(y, k2)]
        k3 = [u - g for u, g in zip(u_mid, grad(y3))]
        y4 = [a + h * k for a, k in zip(y, k3)]
        k4 = [u - g for u, g in zip(u_node, grad(y4))]
        y = [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        yield y2, y3, y4, y


def integrate_forward(grad: Callable, stage_u, theta0,
                      grid: TimeGrid) -> Trajectory:
    """RK4 of theta' = stage_u[s] - grad(theta) from theta0 over `grid`, with
    stage_u the (2N + 1, p) stage controls: node states, their |theta_j|^2
    (inf on overflow; `integrate_lanes` gives these and theta(T) per lane) and
    step j's stage 2-4 states, all read-only. `grad` takes and returns p
    floats; the stage rows become floats one at a time."""
    y = np.array(theta0, dtype=float).tolist()
    states = np.empty((grid.steps + 1, len(y)))
    stages = np.empty((grid.steps, 3, len(y)))
    states[0] = y
    rows = (row.tolist() for row in stage_u)
    for j, (y2, y3, y4, y) in enumerate(rk4_steps(grad, rows, y, grid.dt)):
        stages[j] = y2, y3, y4
        if not all(map(math.isfinite, y)):
            raise DivergenceError(grid.nodes[j + 1], j + 1, "state")
        states[j + 1] = y
    with np.errstate(over="ignore", invalid="ignore"):
        state_sq = squared_norms(states)
    for a in (states, state_sq, stages):
        a.flags.writeable = False
    return Trajectory(grid, states, state_sq, stages)


def squared_norms(states: Array) -> Array:
    """|theta_j|^2 of every row theta_j of `states`."""
    return np.sum(states * states, axis=1)


@np.errstate(over="ignore", invalid="ignore")
def integrate_lanes(grad: Callable, stage_u, theta0,
                    grid: TimeGrid) -> Tuple[Array, Array]:
    """`integrate_forward` on K lanes at once: theta0 and each entry of
    `stage_u`, an iterable of the 2N + 1 stage controls in stage order, are
    (p, K) arrays, and `grad` takes and returns p arrays of shape (K,)
    (`models.lane_gradient_function`). The (p, K) state is `rk4_steps`' one
    entry, so each lane's floats are its own float sweep's, bit for bit.
    Returns what a `Trajectory` gives the costs, for every lane: the
    (K, N + 1) array of |theta_j|^2 at the nodes, and the (K, p) terminal
    states theta(T); an overflowing |theta|^2 is inf here, as there."""
    y = np.array(theta0, dtype=float)
    sq = np.empty((grid.steps + 1, y.shape[1]))
    sq[0] = squared_norms(y.T.copy())
    steps = rk4_steps(lambda ys: [np.array(grad(ys[0]))],
                      ([u] for u in stage_u), [y], grid.dt)
    for j, (*_, (y,)) in enumerate(steps):
        if not np.isfinite(y).all():
            raise DivergenceError(grid.nodes[j + 1], j + 1, "state")
        sq[j + 1] = squared_norms(y.T.copy())
    return sq.T, y.T.copy()


def integrate_backward(hessian, traj: Trajectory, p_T,
                       forcing: float) -> Array:
    """dL/du at all 2N + 1 stages of `traj`, a read-only (2N + 1, p) array;
    `traj` is a forward sweep of theta' = u - grad J(theta) with `hessian`
    the `models.Hessian` of J, and L = sum_j w_j forcing/2 |theta_j|^2 + (a
    terminal term of gradient p_T), w the trapezoid weights. Runs lambda_j =
    dL/dtheta_j through the transposed RK4 steps from lambda_N = p_T + w_N *
    forcing * theta_N, HESSIAN_BLOCK steps at a time: one `hessian.entries`
    call per block, on its points in stored order (node j, y2, y3, y4 of
    each step), whose Hessians the walk uses last to first, with
    `hessian.apply` at each stage. `entries` works point by point, so each
    Hessian does not depend on the order of the points."""
    grid = traj.grid
    n, h = grid.steps, grid.dt
    half, sixth = 0.5 * h, h / 6.0
    apply = hessian.apply
    running = (forcing * trapezoid_weights(grid))[:, None] * traj.states
    lam = (p_T + running[n]).tolist()
    p = len(lam)
    sens = np.empty((2 * n + 1, p))
    # g1 of the step after j, whose stage 2j + 2 it shares with step j's g4
    after = [0.0] * p
    for stop in range(n, 0, -HESSIAN_BLOCK):
        start = max(stop - HESSIAN_BLOCK, 0)
        points = np.concatenate((traj.states[start:stop, None],
                                 traj.stages[start:stop]), axis=1)
        hess = reversed(hessian.entries(points.reshape(-1, p)))
        for j in range(stop - 1, start - 1, -1):
            # the stage slopes are u - grad J, so each H g enters with a minus
            g4 = [sixth * a for a in lam]
            hg4 = apply(next(hess), g4)
            g3 = [2.0 * g - h * a for g, a in zip(g4, hg4)]
            hg3 = apply(next(hess), g3)
            g2 = [2.0 * g - half * a for g, a in zip(g4, hg3)]
            hg2 = apply(next(hess), g2)
            g1 = [g - half * a for g, a in zip(g4, hg2)]
            hg1 = apply(next(hess), g1)
            sens[2 * j + 2] = [a + g for a, g in zip(after, g4)]
            sens[2 * j + 1] = [a + b for a, b in zip(g2, g3)]
            after = g1
            lam = [a - b1 - b2 - b3 - b4 + r for a, b1, b2, b3, b4, r
                   in zip(lam, hg1, hg2, hg3, hg4, running[j].tolist())]
            if not all(map(math.isfinite, lam)):
                raise DivergenceError(grid.nodes[j], j, "costate")
        # free this block's Hessians before the next block's are built
        del hess
    sens[0] = after
    sens.flags.writeable = False
    return sens
