"""Fixed-step classical Runge-Kutta integration of forward state ODEs and
backward (terminal-value) costate ODEs on a shared uniform grid.

A rate is called as `rate(s, y)` with a stage index, not a time: stage 2j is
node j and stage 2j + 1 the midpoint of interval j. One RK4 loop serves both
directions: a forward step from node j visits stages 2j, 2j+1, 2j+1, 2j+2, a
backward step 2j, 2j-1, 2j-1, 2j-2 with the step negated.

Forward trajectories store the rate at every node. The backward sweeps need
the state at each interval midpoint; `midpoint_states` rebuilds those from
the stored node states and rates with the cubic Hermite interpolant.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .core import Array, CostateTrajectory, TimeGrid, Trajectory

Rate = Callable[[int, Array], Array]


class DivergenceError(RuntimeError):
    """A state or costate stopped being finite during integration."""

    def __init__(self, t: float, step: int, what: str = "state"):
        self.t = t
        self.step = step
        self.what = what
        super().__init__(f"non-finite {what} at t={t:.6g} (step {step})")


def _rk4(rate: Rate, y0, grid: TimeGrid, direction: int,
         what: str) -> Tuple[Array, Array]:
    """Node values from y0 at node 0 (direction 1) or node N (direction -1),
    and the first-stage rate of each step at the node it starts from."""
    y = np.array(y0, dtype=float)
    n = grid.steps
    h = direction * grid.dt
    half = 0.5 * h
    sixth = h / 6.0
    values = np.empty((n + 1, y.shape[0]))
    slopes = np.empty_like(values)
    start = 0 if direction > 0 else n
    values[start] = y
    for j in range(start, start + direction * n, direction):
        s = 2 * j
        k1 = rate(s, y)
        k2 = rate(s + direction, y + half * k1)
        k3 = rate(s + direction, y + half * k2)
        k4 = rate(s + 2 * direction, y + h * k3)
        slopes[j] = k1
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(grid.nodes[j + direction], j + direction, what)
        values[j + direction] = y
    return values, slopes


# overflow shows up as a non-finite value, which _rk4 reports itself
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate_forward(rate: Rate, y0, grid: TimeGrid) -> Trajectory:
    """RK4 from t=0 to t=T; node j of the result holds the state at t_j."""
    states, derivs = _rk4(rate, y0, grid, 1, "state")
    derivs[-1] = rate(2 * grid.steps, states[-1])
    return Trajectory(grid=grid, states=states, derivs=derivs)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate_backward(rate: Rate, p_T, grid: TimeGrid) -> CostateTrajectory:
    """RK4 from t=T down to t=0; the node at T holds p_T exactly."""
    costates, _ = _rk4(rate, p_T, grid, -1, "costate")
    return CostateTrajectory(grid=grid, costates=costates)


def midpoint_states(traj: Trajectory) -> Array:
    """All interval-midpoint states at once: the cubic Hermite interpolant
    through each interval's end states and end slopes, at its centre."""
    dt = traj.grid.dt
    st, dv = traj.states, traj.derivs
    return 0.5 * (st[:-1] + st[1:]) + (dt / 8.0) * (dv[:-1] - dv[1:])
