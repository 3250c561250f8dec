"""Fixed-step classical RK4 of the controlled training flow theta' = u -
grad J(theta), and the exact adjoint of that discrete scheme.

The control u enters by stage: stage 2j is node j and stage 2j + 1 the
midpoint of interval j. A forward step from node j reads u at stages 2j,
2j+1, 2j+1 and 2j+2 and keeps the states of stages 2-4; `integrate_backward`
runs the transposed step along them (Hager 2000, Numer. Math. 87), exact for
the forward sweep's numbers at any step size.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import Array, TimeGrid, Trajectory, trapezoid_weights


class DivergenceError(RuntimeError):
    """A state or costate stopped being finite during integration."""

    def __init__(self, t: float, step: int, what: str):
        self.t = t
        self.step = step
        self.what = what
        super().__init__(f"non-finite {what} at t={t:.6g} (step {step})")


# overflow shows up as a non-finite value, which the loops report themselves
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate_forward(grad: Callable[[Array], Array], stage_u, theta0,
                      grid: TimeGrid) -> Trajectory:
    """RK4 of theta' = stage_u[s] - grad(theta) from theta0 over `grid`, with
    stage_u indexed by stage: node states, and step j's stage 2-4 states,
    both read-only."""
    y = np.array(theta0, dtype=float)
    n = grid.steps
    h = grid.dt
    half = 0.5 * h
    sixth = h / 6.0
    states = np.empty((n + 1, y.shape[0]))
    stages = np.empty((n, 3, y.shape[0]))
    states[0] = y
    for j in range(n):
        s = 2 * j
        k1 = stage_u[s] - grad(y)
        y2 = y + half * k1
        k2 = stage_u[s + 1] - grad(y2)
        y3 = y + half * k2
        k3 = stage_u[s + 1] - grad(y3)
        y4 = y + h * k3
        k4 = stage_u[s + 2] - grad(y4)
        stages[j] = y2, y3, y4
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(grid.nodes[j + 1], j + 1, "state")
        states[j + 1] = y
    states.flags.writeable = False
    stages.flags.writeable = False
    return Trajectory(grid=grid, states=states, stages=stages)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate_backward(hvp: Callable[[Array, Array], Array], traj: Trajectory,
                       p_T, forcing: float) -> Array:
    """dL/du at all 2N + 1 stages of `traj`, a read-only (2N + 1, p) array;
    `traj` is a forward sweep of theta' = u - grad J(theta) with hvp(theta, v)
    = Hess(J)(theta) @ v, and L = sum_j w_j forcing/2 |theta_j|^2 + (a
    terminal term of gradient p_T), w the trapezoid weights. Runs lambda_j =
    dL/dtheta_j through the transposed RK4 steps from lambda_N = p_T + w_N *
    forcing * theta_N."""
    grid = traj.grid
    n = grid.steps
    h = grid.dt
    half = 0.5 * h
    sixth = h / 6.0
    running = (forcing * trapezoid_weights(grid))[:, None] * traj.states
    lam = p_T + running[n]
    sens = np.zeros((2 * n + 1, traj.states.shape[1]))
    for j in range(n - 1, -1, -1):
        y2, y3, y4 = traj.stages[j]
        g4 = sixth * lam
        a4 = -hvp(y4, g4)
        g3 = 2.0 * g4 + h * a4
        a3 = -hvp(y3, g3)
        g2 = 2.0 * g4 + half * a3
        a2 = -hvp(y2, g2)
        g1 = g4 + half * a2
        a1 = -hvp(traj.states[j], g1)
        sens[2 * j + 2] += g4
        sens[2 * j + 1] = g2 + g3
        sens[2 * j] = g1
        lam = lam + a1 + a2 + a3 + a4 + running[j]
        if not np.all(np.isfinite(lam)):
            raise DivergenceError(grid.nodes[j], j, "costate")
    sens.flags.writeable = False
    return sens
