"""Fixed-step classical RK4 of the controlled training flow theta' = u -
grad J(theta), and the exact adjoint of that discrete scheme.

The control u enters by stage: stage 2j is node j and stage 2j + 1 the
midpoint of interval j. A forward step from node j reads u at stages 2j,
2j+1, 2j+1 and 2j+2 and keeps the states of stages 2-4; `integrate_backward`
runs the transposed step along them (Hager 2000, Numer. Math. 87), exact for
the forward sweep's numbers at any step size. Both sweeps step on Python
floats, one array row in or out at a time: with a few parameters, numpy's
per-call overhead would cost more than the arithmetic. The forward sweep's
`grad` takes and returns p floats. The backward sweep is one walk over all
steps, fed stage Hessians a block of steps at a time (`models.Hessian`).
Each sweep is one pass of a body chosen by p: with p = 2, as in every
Michaelis-Menten problem, the pair bodies `rk4_pair_steps` and
`_walk_pair`, the generic `rk4_steps` and `_walk` with the coordinates
unrolled: the same float operations in the same order and the same `grad`
and `hessian.apply` calls, so the same bits. `integrate_lanes` runs K
sweeps at once through the same forward body, on p rows of K lanes each.
"""

from __future__ import annotations

import math
from itertools import chain
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
    argument and value are p coordinates, each a float or a (K,) array of
    K lanes; each lane runs the float arithmetic in its order, bit for bit.
    Every sweep of p other than 2 steps here."""
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


def rk4_pair_steps(grad: Callable, stage_u, y, h: float):
    """`rk4_steps` on p = 2 coordinates, floats or lane arrays, unrolled:
    the same float operations in the same order, so the same bits."""
    half, sixth = 0.5 * h, h / 6.0
    stage_u = iter(stage_u)
    u_node = next(stage_u)
    a0, a1 = y
    for m0, m1 in stage_u:
        (f0, f1), u_node = u_node, next(stage_u)
        g0, g1 = grad(y)
        k10, k11 = f0 - g0, f1 - g1
        y2 = [a0 + half * k10, a1 + half * k11]
        g0, g1 = grad(y2)
        k20, k21 = m0 - g0, m1 - g1
        y3 = [a0 + half * k20, a1 + half * k21]
        g0, g1 = grad(y3)
        k30, k31 = m0 - g0, m1 - g1
        y4 = [a0 + h * k30, a1 + h * k31]
        g0, g1 = grad(y4)
        n0, n1 = u_node
        k40, k41 = n0 - g0, n1 - g1
        a0 = a0 + sixth * (k10 + 2.0 * (k20 + k30) + k40)
        a1 = a1 + sixth * (k11 + 2.0 * (k21 + k31) + k41)
        y = [a0, a1]
        yield y2, y3, y4, y


def integrate_forward(grad: Callable, stage_u, theta0,
                      grid: TimeGrid) -> Trajectory:
    """RK4 of theta' = stage_u[s] - grad(theta) from theta0 over `grid`, with
    stage_u the (2N + 1, p) stage controls: node states, their |theta_j|^2
    (inf on overflow; `integrate_lanes` gives these and theta(T) per lane) and
    step j's stage 2-4 states, all read-only. `grad` takes and returns p
    floats; the stage rows become floats one at a time."""
    y = np.array(theta0, dtype=float).tolist()
    if stage_u.shape[1] != len(y):
        raise ValueError(f"stage controls of {stage_u.shape[1]} coordinates "
                         f"for the {len(y)} of theta0")
    states = np.empty((grid.steps + 1, len(y)))
    stages = np.empty((grid.steps, 3, len(y)))
    states[0] = y
    rows = (row.tolist() for row in stage_u)
    steps = rk4_pair_steps if len(y) == 2 else rk4_steps
    for j, (y2, y3, y4, y) in enumerate(steps(grad, rows, y, grid.dt)):
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
    (`models.lane_gradient_function`). Their p rows go to the body that
    `integrate_forward` runs for p, so each lane's floats are its own float
    sweep's, bit for bit. Returns what a `Trajectory` gives the costs, for
    every lane: the (K, N + 1) array of |theta_j|^2 at the nodes, and the
    (K, p) terminal states theta(T); an overflowing |theta|^2 is inf here,
    as there."""
    y = np.array(theta0, dtype=float)
    sq = np.empty((grid.steps + 1, y.shape[1]))
    # each |theta|^2 sums a C-ordered (K, p) row, in its lane's float order
    sq[0] = squared_norms(y.T.copy())
    steps = rk4_pair_steps if len(y) == 2 else rk4_steps
    for j, (*_, y) in enumerate(steps(grad, stage_u, y, grid.dt)):
        rows = np.array(y).T.copy()
        if not np.isfinite(rows).all():
            raise DivergenceError(grid.nodes[j + 1], j + 1, "state")
        sq[j + 1] = squared_norms(rows)
    return sq.T, rows


def integrate_backward(hessian, traj: Trajectory, p_T,
                       forcing: float) -> Array:
    """dL/du at all 2N + 1 stages of `traj`, a read-only (2N + 1, p) array;
    `traj` is a forward sweep of theta' = u - grad J(theta) with `hessian`
    the `models.Hessian` of J, and L = sum_j w_j forcing/2 |theta_j|^2 + (a
    terminal term of gradient p_T), w the trapezoid weights. One walk runs
    lambda_j = dL/dtheta_j through the transposed RK4 steps N - 1 ... 0 from
    lambda_N = p_T + w_N * forcing * theta_N, with `hessian.apply` at each
    stage, drawing Hessians and running-cost rows from two lazy streams
    that fetch HESSIAN_BLOCK steps at a time, last block first: one
    `hessian.entries` call per block, on its points in stored order (node
    j, y2, y3, y4 of each step), so one block's Hessians are held at a time.
    `entries` works point by point: a Hessian does not depend on the order."""
    grid = traj.grid
    n = grid.steps
    running = (forcing * trapezoid_weights(grid))[:, None] * traj.states
    lam = (p_T + running[n]).tolist()
    p = len(lam)
    blocks = [(max(stop - HESSIAN_BLOCK, 0), stop)
              for stop in range(n, 0, -HESSIAN_BLOCK)]
    hess = chain.from_iterable(reversed(hessian.entries(np.concatenate(
        (traj.states[a:b, None], traj.stages[a:b]), axis=1).reshape(-1, p)))
        for a, b in blocks)
    rows = chain.from_iterable(reversed(running[a:b].tolist())
                               for a, b in blocks)
    sens = np.empty((2 * n + 1, p))
    walk = _walk_pair if p == 2 else _walk
    sens[0] = walk(hessian.apply, hess, rows, lam, sens, grid)
    sens.flags.writeable = False
    return sens


def _walk(apply, hess, running, lam, sens, grid: TimeGrid):
    """The transposed RK4 steps N - 1 down to 0 on p floats, from lam =
    lambda_N: `hess` yields each step's Hessians at y4, y3, y2 and its node,
    and `running` its running-cost gradient, last step first. Writes each
    step j's stage 2j + 1 and 2j + 2 sensitivities into `sens`; returns
    stage 0's, which is step 0's g1."""
    h = grid.dt
    half, sixth = 0.5 * h, h / 6.0
    # g1 of the step after, whose stage it shares with a g4
    after = [0.0] * len(lam)
    for j, r in zip(range(grid.steps - 1, -1, -1), running):
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
        lam = [a - b1 - b2 - b3 - b4 + c for a, b1, b2, b3, b4, c
               in zip(lam, hg1, hg2, hg3, hg4, r)]
        if not all(map(math.isfinite, lam)):
            raise DivergenceError(grid.nodes[j], j, "costate")
    return after


def _walk_pair(apply, hess, running, lam, sens, grid: TimeGrid):
    """`_walk` on p = 2 floats, its coordinates unrolled: the same float
    operations in the same order, so the same bits."""
    h = grid.dt
    half, sixth = 0.5 * h, h / 6.0
    l0, l1 = lam
    a0 = a1 = 0.0
    for j, (r0, r1) in zip(range(grid.steps - 1, -1, -1), running):
        g40, g41 = sixth * l0, sixth * l1
        b40, b41 = apply(next(hess), [g40, g41])
        g30, g31 = 2.0 * g40 - h * b40, 2.0 * g41 - h * b41
        b30, b31 = apply(next(hess), [g30, g31])
        g20, g21 = 2.0 * g40 - half * b30, 2.0 * g41 - half * b31
        b20, b21 = apply(next(hess), [g20, g21])
        g10, g11 = g40 - half * b20, g41 - half * b21
        b10, b11 = apply(next(hess), [g10, g11])
        sens[2 * j + 2] = a0 + g40, a1 + g41
        sens[2 * j + 1] = g20 + g30, g21 + g31
        a0, a1 = g10, g11
        l0 = l0 - b10 - b20 - b30 - b40 + r0
        l1 = l1 - b11 - b21 - b31 - b41 + r1
        if not (math.isfinite(l0) and math.isfinite(l1)):
            raise DivergenceError(grid.nodes[j], j, "costate")
    return [a0, a1]
