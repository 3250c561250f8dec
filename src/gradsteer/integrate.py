"""Fixed-step classical Runge-Kutta integration of forward state ODEs and
backward (terminal-value) costate ODEs on a shared uniform grid.

Forward trajectories store the vector field at every node. The backward
sweeps need the state at each interval midpoint (their half-step stage
times); `midpoint_states` rebuilds those from the stored node states and
field values with the cubic Hermite interpolant.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import Array, CostateTrajectory, TerminalKind, TimeGrid, Trajectory

VectorField = Callable[[float, Array], Array]


class DivergenceError(RuntimeError):
    """A state or costate stopped being finite during integration."""

    def __init__(self, t: float, step: int, what: str = "state"):
        self.t = t
        self.step = step
        super().__init__(f"non-finite {what} at t={t:.6g} (step {step})")


def integrate_forward(field: VectorField, y0, grid: TimeGrid) -> Trajectory:
    """RK4 from t=0 to t=T; node j of the result holds the state at t_j."""
    y = np.array(y0, dtype=float)
    n, dt = grid.steps, grid.dt
    nodes = grid.nodes
    states = np.empty((n + 1, y.shape[0]))
    derivs = np.empty_like(states)
    states[0] = y
    half = 0.5 * dt
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(n):
            t = nodes[j]
            tm = 0.5 * (nodes[j] + nodes[j + 1])
            k1 = field(t, y)
            k2 = field(tm, y + half * k1)
            k3 = field(tm, y + half * k2)
            k4 = field(nodes[j + 1], y + dt * k3)
            derivs[j] = k1
            y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.all(np.isfinite(y)):
                raise DivergenceError(nodes[j + 1], j + 1)
            states[j + 1] = y
        derivs[n] = field(nodes[n], y)
    return Trajectory(grid=grid, states=states, derivs=derivs)


def integrate_backward(field: VectorField, p_T, grid: TimeGrid,
                       terminal_kind: TerminalKind = TerminalKind.FOLLOWER_ZERO,
                       ) -> CostateTrajectory:
    """RK4 from t=T down to t=0; the node at T holds p_T exactly."""
    p = np.array(p_T, dtype=float)
    n, dt = grid.steps, grid.dt
    nodes = grid.nodes
    costates = np.empty((n + 1, p.shape[0]))
    costates[n] = p
    h = -dt
    half = 0.5 * h
    sixth = h / 6.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(n, 0, -1):
            t = nodes[j]
            tm = 0.5 * (nodes[j - 1] + nodes[j])
            k1 = field(t, p)
            k2 = field(tm, p + half * k1)
            k3 = field(tm, p + half * k2)
            k4 = field(nodes[j - 1], p + h * k3)
            p = p + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.all(np.isfinite(p)):
                raise DivergenceError(nodes[j - 1], j - 1, what="costate")
            costates[j - 1] = p
    return CostateTrajectory(grid=grid, costates=costates, terminal_kind=terminal_kind)


def midpoint_states(traj: Trajectory) -> Array:
    """All interval-midpoint states at once: the cubic Hermite interpolant
    through each interval's end states and end slopes, at its centre."""
    dt = traj.grid.dt
    st, dv = traj.states, traj.derivs
    return 0.5 * (st[:-1] + st[1:]) + (dt / 8.0) * (dv[:-1] - dv[1:])
