"""Adjoint-based gradients of the two control functionals, discretise then
optimise: each is the exact derivative of the functional that the RK4
forward sweep and the trapezoid rule compute (see `integrate`).

Conventions (fixed by the finite-difference exactness tests):

* Hamiltonian = running cost + <costate, state velocity>.
* A backward sweep returns dL/du at every RK4 stage; `node_costates` maps
  that to node values p_j whose trapezoid pairing with a direction is the
  derivative of the functional's state part along it.
* With the follower's zero terminal costate, dH2/du2 = (beta*u2 + p2) on
  follower coordinates is the exact gradient of J2.
* With the penalty terminal costate p1(T) = mu*(Phi(theta(T)) - z)*dPhi,
  dH1/du1 = p1 on leader coordinates is the exact frozen-follower gradient
  of  J1 + (mu/2)*(Phi - z)^2.  The fixed-terminal mode instead uses
  p1(T) = -dPhi, which differentiates the Lagrangian J1 - (Phi - z).
* Descent steps are u <- u - gamma * dH/du.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import (Array, BasisControl, ControlPartition, ControlSignal, Dataset,
                   GridControl, SolverConfig, TerminalMode, TimeGrid,
                   Trajectory, sampled_basis_matrix, trapezoid_weights,
                   _frozen_array)
from .integrate import integrate_backward, integrate_forward
from .models import (Objective, gradient_function, hvp_function, validation_phi,
                     validation_phi_grad)

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
    """Steering-side problem: drive the terminal validation value to z with
    the follower response held fixed. The running cost is |theta|^2 / 2.
    """

    objective: Objective
    validation: Dataset
    z: float
    mu: float
    partition: ControlPartition
    u2: ControlSignal
    grid: TimeGrid
    theta0: Array
    terminal_mode: TerminalMode = TerminalMode.PENALTY

    def __post_init__(self):
        object.__setattr__(self, "theta0", _frozen_array(self.theta0, "theta0"))


@dataclass(frozen=True)
class ControlGradient:
    """Gradient in the shape of a control: pointwise values on grid nodes,
    plus basis coefficients when the control is basis-represented."""

    pointwise: Array
    coefficients: Optional[Array] = None

    @property
    def norm_inf(self) -> float:
        return float(np.abs(self.pointwise).max())

    @property
    def update_norm(self) -> float:
        """The norm both agents' stopping tests use: coefficient norm for
        basis controls (the pointwise residual cannot drop below the
        representation error there), pointwise norm for grid controls."""
        if self.coefficients is not None:
            return float(np.abs(self.coefficients).max())
        return self.norm_inf


# ---------------------------------------------------------------------------
# control sampling and quadrature

def _require_own_grid(u: ControlSignal, grid: TimeGrid) -> None:
    if u.grid != grid:
        raise ValueError(
            f"control sampled off its own grid: it has {u.grid.steps} steps "
            f"over [0, {u.grid.horizon}], the requested grid {grid.steps} "
            f"steps over [0, {grid.horizon}]")


def control_node_values(u: ControlSignal, grid: TimeGrid) -> Array:
    """Control at the grid's nodes, shape (steps + 1, p), clamped to
    +-u_max. `grid` must be the control's own grid; any other raises
    ValueError."""
    _require_own_grid(u, grid)
    if isinstance(u, BasisControl):
        vals = sampled_basis_matrix(grid, u.n_functions, False) @ u.coefficients
    else:
        vals = u.values
    return np.clip(vals, -u.u_max, u.u_max)


def stage_control_values(u: ControlSignal, grid: TimeGrid) -> Array:
    """Control at nodes and interval midpoints, shape (2*steps + 1, p),
    clamped to +-u_max; a grid control's midpoint value is the mean of its
    two nodes. `grid` must be the control's own grid; any other raises
    ValueError."""
    _require_own_grid(u, grid)
    if isinstance(u, BasisControl):
        out = sampled_basis_matrix(grid, u.n_functions, True) @ u.coefficients
    else:
        out = np.empty((2 * grid.steps + 1, u.dimension))
        out[0::2] = u.values
        out[1::2] = 0.5 * (u.values[:-1] + u.values[1:])
    return np.clip(out, -u.u_max, u.u_max)


def node_costates(grid: TimeGrid, sens: Array) -> Array:
    """Node costates p_j of a backward sweep's stage sensitivities `sens`:
    the transpose of stage_control_values' grid sampling (a midpoint is the
    mean of its nodes) applied to them over the trapezoid weights, so that
    p's trapezoid pairing with a node-sampled direction is the derivative."""
    nodes = sens[0::2].copy()
    nodes[:-1] += 0.5 * sens[1::2]
    nodes[1:] += 0.5 * sens[1::2]
    return nodes / trapezoid_weights(grid)[:, None]


def combined_stage_controls(u1: ControlSignal, u2: ControlSignal,
                            partition: ControlPartition, grid: TimeGrid) -> Array:
    if not u1.dimension == u2.dimension == partition.dimension:
        raise ValueError(f"control dimensions {u1.dimension} and {u2.dimension} "
                         f"do not match the partition's {partition.dimension}")
    return (stage_control_values(u1, grid) * partition.leader_mask
            + stage_control_values(u2, grid) * partition.follower_mask)


def grid_inner_product(grid: TimeGrid, a: Array, b: Array) -> float:
    """Trapezoid-weighted L2 pairing of two node-sampled signals."""
    return float(trapezoid_weights(grid) @ np.sum(a * b, axis=1))


# ---------------------------------------------------------------------------
# sweeps

def run_forward(objective: Objective, stage_u: Array, theta0: Array,
                grid: TimeGrid) -> Trajectory:
    """Controlled descent flow thetadot = -grad J0(theta) + stage_u[s]."""
    grad = gradient_function(objective)
    return integrate_forward(lambda s, theta: stage_u[s] - grad(theta),
                             theta0, grid)


# ---------------------------------------------------------------------------
# follower functional: J2, sweeps, gradient

def follower_forward(prob: FollowerProblem, u2: ControlSignal) -> Trajectory:
    stage = combined_stage_controls(prob.u1, u2, prob.partition, prob.grid)
    return run_forward(prob.objective, stage, prob.theta0, prob.grid)


def follower_backward(prob: FollowerProblem, traj: Trajectory) -> Array:
    return integrate_backward(hvp_function(prob.objective), traj,
                              np.zeros(traj.states.shape[1]), prob.alpha)


def follower_cost(prob: FollowerProblem, traj: Trajectory,
                  u2: ControlSignal) -> float:
    """J2 = integral of alpha/2 |theta|^2 + beta/2 |u2 on follower coords|^2."""
    u2n = control_node_values(u2, prob.grid) * prob.partition.follower_mask
    running = (0.5 * prob.alpha * np.sum(traj.states * traj.states, axis=1)
               + 0.5 * prob.beta * np.sum(u2n * u2n, axis=1))
    return float(trapezoid_weights(prob.grid) @ running)


def _package_gradient(grid: TimeGrid, like: ControlSignal, sens: Array,
                      mask: Array, cost_grad) -> ControlGradient:
    """Gradient on the `mask` coordinates of a functional whose running control
    cost has node gradient `cost_grad` and whose state part has stage
    sensitivities `sens`; a basis control's coefficients take its transposed
    node and stage sampling."""
    pointwise = (cost_grad + node_costates(grid, sens)) * mask
    if isinstance(like, BasisControl):
        cost = trapezoid_weights(grid)[:, None] * cost_grad * mask
        coeffs = (sampled_basis_matrix(grid, like.n_functions, False).T @ cost
                  + sampled_basis_matrix(grid, like.n_functions, True).T
                  @ (sens * mask))
        return ControlGradient(pointwise=pointwise, coefficients=coeffs)
    return ControlGradient(pointwise=pointwise)


def follower_gradient_arrays(prob: FollowerProblem, u2: ControlSignal,
                             sens: Array) -> ControlGradient:
    u2n = control_node_values(u2, prob.grid)
    return _package_gradient(prob.grid, u2, sens, prob.partition.follower_mask,
                             prob.beta * u2n)


def control_gradient_follower(prob: FollowerProblem,
                              u2: ControlSignal) -> ControlGradient:
    """dH2/du2 along the current sweep pair (runs both sweeps)."""
    traj = follower_forward(prob, u2)
    return follower_gradient_arrays(prob, u2, follower_backward(prob, traj))


# ---------------------------------------------------------------------------
# leader functional: merit, sweeps, gradient

def leader_forward(prob: LeaderProblem, u1: ControlSignal) -> Trajectory:
    stage = combined_stage_controls(u1, prob.u2, prob.partition, prob.grid)
    return run_forward(prob.objective, stage, prob.theta0, prob.grid)


def leader_phi(prob: LeaderProblem, theta_T: Array) -> float:
    return validation_phi(prob.objective.model, theta_T, prob.validation,
                          prob.objective.loss_scale)


def leader_terminal_costate(prob: LeaderProblem, theta_T: Array) -> Array:
    dphi = validation_phi_grad(prob.objective.model, theta_T, prob.validation,
                               prob.objective.loss_scale)
    if prob.terminal_mode is TerminalMode.PAPER_FIXED:
        return -dphi
    return prob.mu * (leader_phi(prob, theta_T) - prob.z) * dphi


def leader_backward(prob: LeaderProblem, traj: Trajectory) -> Array:
    p_T = leader_terminal_costate(prob, traj.terminal_state)
    return integrate_backward(hvp_function(prob.objective), traj, p_T, 1.0)


def leader_running_cost(traj: Trajectory) -> float:
    running = 0.5 * np.sum(traj.states * traj.states, axis=1)
    return float(trapezoid_weights(traj.grid) @ running)


def leader_merit(prob: LeaderProblem, traj: Trajectory) -> Tuple[float, float, float]:
    """(line-search merit, J1, Phi at the endpoint).

    Penalty mode: J1 + (mu/2)(Phi - z)^2. Fixed-terminal mode: J1 - (Phi - z),
    the Lagrangian whose gradient that mode's costate produces.
    """
    j1 = leader_running_cost(traj)
    phi = leader_phi(prob, traj.terminal_state)
    if prob.terminal_mode is TerminalMode.PAPER_FIXED:
        return j1 - (phi - prob.z), j1, phi
    return j1 + 0.5 * prob.mu * (phi - prob.z) ** 2, j1, phi


def leader_gradient_arrays(prob: LeaderProblem, u1: ControlSignal,
                           sens: Array) -> ControlGradient:
    return _package_gradient(prob.grid, u1, sens, prob.partition.leader_mask,
                             0.0)


def control_gradient_leader(prob: LeaderProblem,
                            u1: ControlSignal) -> ControlGradient:
    """dH1/du1 = leader-masked costate (no explicit control cost in H1)."""
    traj = leader_forward(prob, u1)
    return leader_gradient_arrays(prob, u1, leader_backward(prob, traj))


# ---------------------------------------------------------------------------
# control updates

def update_control(u: ControlSignal, gradient: ControlGradient,
                   step: float) -> ControlSignal:
    """One descent step u - step * gradient in u's own representation,
    clamped to the amplitude bound."""
    if isinstance(u, BasisControl):
        if gradient.coefficients is None:
            raise ValueError("basis control update needs coefficient gradient")
        coeffs = u.coefficients - step * gradient.coefficients
        return BasisControl(u.grid, coeffs, u.u_max)
    values = np.clip(u.values - step * gradient.pointwise, -u.u_max, u.u_max)
    return GridControl(u.grid, values, u.u_max)


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


def gradient_check(objective: Objective, validation: Dataset,
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
                          u2, grid, theta0, config.terminal_mode)

    g2 = control_gradient_follower(fprob, u2).pointwise + corruption
    g1 = control_gradient_leader(lprob, u1).pointwise + corruption

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
