"""Adjoint-based gradients of the two control functionals, discretise then
optimise: each is the exact derivative of the functional that the RK4
forward sweep and the trapezoid rule compute (see `integrate`).

Conventions (fixed by the finite-difference exactness tests):

* Hamiltonian = running cost + <costate, state velocity>.
* A forward sweep integrates theta' = u1 + u2 - grad J0(theta), each control
  on its own agent's coordinates, from the problem's theta0 on its grid.
* A backward sweep returns dL/du at every RK4 stage. Each control class
  (`core`) samples itself at those stages and turns the sensitivities into
  its own-coordinate gradient; `core.node_costates` maps them to node values
  p_j whose trapezoid pairing with a direction is the derivative of the
  functional's state part along it.
* With the follower's zero terminal costate, dH2/du2 = (beta*u2 + p2) on
  follower coordinates is the exact gradient of J2.
* With the penalty terminal costate p1(T) = mu*(Phi(theta(T)) - z)*dPhi,
  dH1/du1 = p1 on leader coordinates is the exact frozen-follower gradient
  of  J1 + (mu/2)*(Phi - z)^2.
* Descent steps are u <- u - gamma * dH/du.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import (Array, ControlGradient, ControlPartition, ControlSignal,
                   GridControl, SolverConfig, TimeGrid, Trajectory,
                   trapezoid_weights, _frozen_array)
from .integrate import DivergenceError, integrate_backward, integrate_forward
from .models import Objective, gradient_function, hvp_function, objective_value

FD_STEP = 1e-5  # central-difference step of gradient_check
SIGNAL_MODES = 4  # cosine modes of gradient_check's random signals


@dataclass(frozen=True)
class FollowerProblem:
    """Regularization-side problem: respond optimally to a fixed leader control."""

    objective: Objective
    alpha: float
    beta: float
    partition: ControlPartition
    u1: ControlSignal
    grid: TimeGrid
    theta0: Array

    def __post_init__(self):
        object.__setattr__(self, "theta0", _frozen_array(self.theta0, "theta0"))


@dataclass(frozen=True)
class LeaderProblem:
    """Steering-side problem: drive Phi(theta(T)), the `validation`
    objective's value, to z with the follower response u2 held fixed, on
    u2's grid. The running cost is |theta|^2 / 2."""

    objective: Objective
    validation: Objective
    z: float
    mu: float
    partition: ControlPartition
    u2: ControlSignal
    theta0: Array

    def __post_init__(self):
        object.__setattr__(self, "theta0", _frozen_array(self.theta0, "theta0"))


# ---------------------------------------------------------------------------
# the agents' combined controls, and the node pairing

def combined_stage_controls(u1: ControlSignal, u2: ControlSignal,
                            partition: ControlPartition, grid: TimeGrid) -> Array:
    """Leader and follower coordinates of u1 and u2 at every RK4 stage of
    `grid`, which must be both controls' own grid; any other raises
    ValueError."""
    if not u1.dimension == u2.dimension == partition.dimension:
        raise ValueError(f"control dimensions {u1.dimension} and {u2.dimension} "
                         f"do not match the partition's {partition.dimension}")
    for u in (u1, u2):
        if u.grid != grid:
            raise ValueError(
                f"control sampled off its own grid: it has {u.grid.steps} "
                f"steps over [0, {u.grid.horizon}], the problem's grid "
                f"{grid.steps} steps over [0, {grid.horizon}]")
    return (u1.stage_values() * partition.leader_mask
            + u2.stage_values() * partition.follower_mask)


def grid_inner_product(grid: TimeGrid, a: Array, b: Array) -> float:
    """Trapezoid-weighted L2 pairing of two node-sampled signals."""
    return float(trapezoid_weights(grid) @ np.sum(a * b, axis=1))


# ---------------------------------------------------------------------------
# follower functional: J2, sweeps, gradient

def follower_forward(prob: FollowerProblem, u2: ControlSignal) -> Trajectory:
    stage = combined_stage_controls(prob.u1, u2, prob.partition, prob.grid)
    return integrate_forward(gradient_function(prob.objective), stage,
                             prob.theta0, prob.grid)


def follower_backward(prob: FollowerProblem, traj: Trajectory) -> Array:
    return integrate_backward(hvp_function(prob.objective), traj,
                              np.zeros(traj.states.shape[1]), prob.alpha)


def require_finite(value, grid: TimeGrid, what: str):
    """`value`, or DivergenceError(`what`) at the end of `grid` when an entry
    of it is not finite. Costs and residuals are computed with overflow
    warnings off, so an overflow arrives here as an infinity or a NaN."""
    if not np.all(np.isfinite(value)):
        raise DivergenceError(grid.horizon, grid.steps, what)
    return value


@np.errstate(over="ignore", invalid="ignore")
def follower_cost(prob: FollowerProblem, traj: Trajectory,
                  u2: ControlSignal) -> float:
    """J2 = integral of alpha/2 |theta|^2 + beta/2 |u2 on follower coords|^2."""
    u2n = u2.node_values() * prob.partition.follower_mask
    running = (0.5 * prob.alpha * np.sum(traj.states * traj.states, axis=1)
               + 0.5 * prob.beta * np.sum(u2n * u2n, axis=1))
    return require_finite(float(trapezoid_weights(prob.grid) @ running),
                          prob.grid, "cost")


def follower_gradient_arrays(prob: FollowerProblem, u2: ControlSignal,
                             sens: Array) -> ControlGradient:
    return u2.gradient(sens, prob.partition.follower_mask,
                       prob.beta * u2.node_values())


# ---------------------------------------------------------------------------
# leader functional: merit, sweeps, gradient

def leader_forward(prob: LeaderProblem, u1: ControlSignal) -> Trajectory:
    stage = combined_stage_controls(u1, prob.u2, prob.partition, prob.u2.grid)
    return integrate_forward(gradient_function(prob.objective), stage,
                             prob.theta0, prob.u2.grid)


def leader_terminal_costate(prob: LeaderProblem, theta_T: Array) -> Array:
    dphi = np.asarray(gradient_function(prob.validation)(theta_T))
    return prob.mu * (objective_value(prob.validation, theta_T) - prob.z) * dphi


def leader_backward(prob: LeaderProblem, traj: Trajectory) -> Array:
    p_T = leader_terminal_costate(prob, traj.terminal_state)
    return integrate_backward(hvp_function(prob.objective), traj, p_T, 1.0)


@np.errstate(over="ignore", invalid="ignore")
def leader_merit(prob: LeaderProblem, traj: Trajectory) -> Tuple[float, float, float]:
    """(line-search merit J1 + (mu/2)(Phi - z)^2, J1, Phi at the endpoint)."""
    running = 0.5 * np.sum(traj.states * traj.states, axis=1)
    j1 = float(trapezoid_weights(traj.grid) @ running)
    phi = objective_value(prob.validation, traj.terminal_state)
    merit = j1 + 0.5 * prob.mu * (phi - prob.z) ** 2
    return require_finite(merit, traj.grid, "cost"), j1, phi


def leader_gradient_arrays(prob: LeaderProblem, u1: ControlSignal,
                           sens: Array) -> ControlGradient:
    return u1.gradient(sens, prob.partition.leader_mask, 0.0)


# ---------------------------------------------------------------------------
# control updates

def update_control(u: ControlSignal, direction: Array,
                   step: float) -> ControlSignal:
    """One descent step u - step * direction in u's own coordinates, within
    the amplitude bound."""
    return u.update(direction, step)


# ---------------------------------------------------------------------------
# finite-difference certification protocol

def smooth_random_signal(rng: np.random.Generator, grid: TimeGrid, dim: int,
                         amplitude: float) -> Array:
    """Low-frequency cosine mix on grid nodes; used for check directions."""
    coeffs = rng.normal(size=(SIGNAL_MODES, dim)) * amplitude
    phase = np.pi * grid.nodes / grid.horizon
    out = np.zeros((grid.steps + 1, dim))
    for k in range(SIGNAL_MODES):
        out += coeffs[k] * np.cos(k * phase)[:, None]
    return out


def gradient_check(objective: Objective, validation: Objective,
                   partition: ControlPartition, theta0, grid: TimeGrid,
                   config: SolverConfig, seed: int = 0, n_directions: int = 20,
                   corruption: float = 0.0) -> List[dict]:
    """Compare adjoint gradients against central finite differences of the
    associated functionals, for random smooth base controls and directions.

    Returns one record per (functional, direction). `corruption` is a fault
    injection hook: it is added to every adjoint gradient before comparison,
    so any nonzero value must make the check fail. The adjoint gradients
    are exact for the discrete functionals, so one difference step serves
    both, on `grid` itself.
    """
    rng = np.random.default_rng(seed)
    p = partition.dimension
    base_amp = 0.1
    u1 = GridControl(grid, smooth_random_signal(rng, grid, p, base_amp), config.u_max)
    u2 = GridControl(grid, smooth_random_signal(rng, grid, p, base_amp), config.u_max)

    fprob = FollowerProblem(objective, config.alpha, config.beta, partition,
                            u1, grid, theta0)
    lprob = LeaderProblem(objective, validation, config.z, config.mu, partition,
                          u2, theta0)

    # both problems integrate the pair (u1, u2), so one forward sweep serves
    # both backward sweeps
    traj = follower_forward(fprob, u2)
    sens2, sens1 = follower_backward(fprob, traj), leader_backward(lprob, traj)
    g2 = follower_gradient_arrays(fprob, u2, sens2).pointwise + corruption
    g1 = leader_gradient_arrays(lprob, u1, sens1).pointwise + corruption

    def j2_at(values: Array) -> float:
        cand = GridControl(grid, values, config.u_max)
        return follower_cost(fprob, follower_forward(fprob, cand), cand)

    def merit_at(values: Array) -> float:
        cand = GridControl(grid, values, config.u_max)
        return leader_merit(lprob, leader_forward(lprob, cand))[0]

    checks = (("follower", j2_at, u2, g2, partition.follower_mask),
              ("leader", merit_at, u1, g1, partition.leader_mask))
    records = []
    for i in range(n_directions):
        d = smooth_random_signal(rng, grid, p, 1.0)
        for functional, value_at, u, g, mask in checks:
            dm = d * mask
            fd = float(value_at(u.values + FD_STEP * dm)
                       - value_at(u.values - FD_STEP * dm)) / (2 * FD_STEP)
            adj = grid_inner_product(grid, g, dm)
            records.append({"functional": functional, "direction": i,
                            "fd": fd, "adjoint": adj,
                            "rel_error": abs(fd - adj) / max(abs(fd), 1e-12)})
    return records
