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

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import (Array, ControlGradient, ControlPartition, ControlSignal,
                   GridControl, SolverConfig, TimeGrid, Trajectory,
                   stage_samples, trapezoid_weights, _frozen_array)
from .integrate import (DivergenceError, integrate_backward, integrate_forward,
                        integrate_lanes, squared_norms)
# hvp_function is called by no sweep; it is kept so that the benchmark
# tracer's count site `adjoint.hvp_function` resolves
from .models import (Objective, gradient_function, hessian_function,
                     hvp_function, lane_gradient_function, objective_value)

FD_STEP = 1e-5  # central-difference step of gradient_check
SIGNAL_MODES = 4  # cosine modes of gradient_check's random signals
# nodes whose lane controls are built at once: 16 makes the numpy calls per
# node few and keeps the block's arrays small against the sweep's memory
LANE_BLOCK = 16


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
    return integrate_backward(hessian_function(prob.objective), traj,
                              np.zeros(traj.states.shape[1]), prob.alpha)


def require_finite(value, what: str):
    """`value`, or DivergenceError(`what`) with no time or step when an entry
    of it is not finite. Costs and residuals are computed with overflow
    warnings off, so an overflow arrives here as an infinity or a NaN."""
    if not np.all(np.isfinite(value)):
        raise DivergenceError(None, None, what)
    return value


@np.errstate(over="ignore", invalid="ignore")
def follower_cost(prob: FollowerProblem, state_sq: Array,
                  u2_nodes: Array) -> float:
    """J2 = integral of alpha/2 |theta|^2 + beta/2 |u2 on follower coords|^2,
    of a sweep from its |theta_j|^2 and u2's values at the nodes."""
    u2n = u2_nodes * prob.partition.follower_mask
    running = (0.5 * prob.alpha * state_sq
               + 0.5 * prob.beta * squared_norms(u2n))
    return require_finite(float(trapezoid_weights(prob.grid) @ running),
                          "cost")


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
    return integrate_backward(hessian_function(prob.objective), traj, p_T,
                              1.0)


@np.errstate(over="ignore", invalid="ignore")
def leader_merit(prob: LeaderProblem, state_sq: Array,
                 theta_T: Array) -> Tuple[float, float, float]:
    """(line-search merit J1 + (mu/2)(Phi - z)^2, J1, Phi at the endpoint) of
    a sweep on u2's grid, from its |theta_j|^2 and its endpoint theta_T."""
    j1 = float(trapezoid_weights(prob.u2.grid) @ (0.5 * state_sq))
    phi = objective_value(prob.validation, theta_T)
    merit = j1 + 0.5 * prob.mu * (phi - prob.z) ** 2
    return require_finite(merit, "cost"), j1, phi


def leader_gradient_arrays(prob: LeaderProblem, u1: ControlSignal,
                           sens: Array) -> ControlGradient:
    return u1.gradient(sens, prob.partition.leader_mask, 0.0)


# ---------------------------------------------------------------------------
# control updates

def update_control(u: ControlSignal, direction: Array,
                   step: float) -> ControlSignal:
    """One descent step u - step * direction in u's own coordinates, within
    the amplitude bound. Kept as a function, not a call of `u.update`, so
    that the benchmark tracer's trial-counting span sites
    `follower.update_control` and `leader.update_control` resolve."""
    return u.update(direction, step)


# ---------------------------------------------------------------------------
# finite-difference certification protocol

def cosine_modes(grid: TimeGrid) -> Array:
    """cos(k pi t / T) at the grid's nodes, one row per k < SIGNAL_MODES."""
    phase = np.pi * grid.nodes / grid.horizon
    return np.array([np.cos(k * phase) for k in range(SIGNAL_MODES)])


def cosine_signal(coeffs: Array, modes: Array) -> Array:
    """The mix sum_k coeffs[k] * modes[k] on the nodes: (nodes, dim) for
    (SIGNAL_MODES, dim) coefficients, and (nodes, dim, K), K lanes, for
    (SIGNAL_MODES, dim, K) ones."""
    out = 0.0
    for c, m in zip(coeffs, modes):
        out = out + c * m.reshape(m.shape + (1,) * c.ndim)
    return out


def smooth_random_signal(rng: np.random.Generator, grid: TimeGrid, dim: int,
                         amplitude: float) -> Array:
    """Low-frequency cosine mix on grid nodes, drawn from `rng`; the base
    controls of gradient_check."""
    return cosine_signal(rng.normal(size=(SIGNAL_MODES, dim)) * amplitude,
                         cosine_modes(grid))


def _lane_stage_controls(u1: GridControl, u2: GridControl, directions,
                         modes: Array, partition: ControlPartition):
    """The combined stage controls of every candidate pair, one lane each,
    as (p, K) arrays in stage order. Lane 4i + 2f + s perturbs u2 (f = 0)
    or u1 (f = 1) by +FD_STEP (s = 0) or -FD_STEP (s = 1) times direction i
    on its agent's coordinates. Each block of nodes goes through
    `cosine_signal`, `core.stage_samples` and the masks of
    `combined_stage_controls`, so each lane's stage controls are those of
    its candidate's unbounded `GridControl`, bit for bit."""
    n = len(directions)
    leader = np.tile([False, False, True, True], n)
    sign = np.tile([1.0, -1.0], 2 * n)
    coeffs = np.repeat(np.reshape(directions, (n, SIGNAL_MODES,
                                               partition.dimension)),
                       4, axis=0).transpose(1, 2, 0)
    lm = partition.leader_mask[:, None]
    fm = partition.follower_mask[:, None]
    own_mask, other_mask = np.where(leader, lm, fm), np.where(leader, fm, lm)

    # nodes in blocks, each block from the last node of the one before
    for start in range(0, modes.shape[1], LANE_BLOCK):
        rows = slice(max(start - 1, 0), start + LANE_BLOCK)
        a, b = u1.values[rows][:, :, None], u2.values[rows][:, :, None]
        d = cosine_signal(coeffs, modes[:, rows])
        own = np.where(leader, a, b) + sign * (FD_STEP * (d * own_mask))
        other = np.where(leader, b, a)
        yield from (stage_samples(own) * own_mask
                    + stage_samples(other) * other_mask)[1 if start else 0:]


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
    both, on `grid` itself. One forward sweep of the base pair feeds both
    backward sweeps; the 4 * n_directions candidate pairs run as the lanes
    of one `integrate_lanes` sweep, whose floats are those of one
    `integrate_forward` sweep per candidate. The gradient is that of the
    unclamped functional (`ControlSignal.gradient` ignores the amplitude
    bound), so the controls are unbounded and `config.u_max` is not read:
    the check certifies the same gradient at any bound.
    """
    rng = np.random.default_rng(seed)
    p = partition.dimension
    modes = cosine_modes(grid)
    # the random stream gives u1, u2, then the cosine weights of one
    # direction (amplitude 1) per comparison
    u1, u2 = (GridControl(grid, smooth_random_signal(rng, grid, p, 0.1),
                          math.inf) for _ in range(2))
    directions = [rng.normal(size=(SIGNAL_MODES, p))
                  for _ in range(n_directions)]

    fprob = FollowerProblem(objective, config.alpha, config.beta, partition,
                            u1, grid, theta0)
    lprob = LeaderProblem(objective, validation, config.z, config.mu, partition,
                          u2, theta0)

    # both problems integrate the pair (u1, u2), so one forward sweep serves
    # both backward sweeps
    traj = follower_forward(fprob, u2)
    g2, g1 = (g.pointwise + corruption for g in (
        follower_gradient_arrays(fprob, u2, follower_backward(fprob, traj)),
        leader_gradient_arrays(lprob, u1, leader_backward(lprob, traj))))

    sq, theta_T = integrate_lanes(
        lane_gradient_function(objective),
        _lane_stage_controls(u1, u2, directions, modes, partition),
        np.repeat(fprob.theta0[:, None], 4 * n_directions, axis=1), grid)

    # a functional's value on lane k, priced by the functions the line
    # searches use; v, the perturbed control's node values, is read by J2 only
    checks = (("follower", lambda k, v: follower_cost(fprob, sq[k], v),
               u2, g2, partition.follower_mask),
              ("leader", lambda k, v: leader_merit(lprob, sq[k], theta_T[k])[0],
               u1, g1, partition.leader_mask))
    records = []
    for i, coeffs in enumerate(directions):
        d = cosine_signal(coeffs, modes)
        for f, (functional, value_of, u, g, mask) in enumerate(checks):
            dm = d * mask
            lane = 4 * i + 2 * f
            fd = float(value_of(lane, u.values + FD_STEP * dm)
                       - value_of(lane + 1, u.values - FD_STEP * dm)) \
                / (2 * FD_STEP)
            adj = grid_inner_product(grid, g, dm)
            records.append({"functional": functional, "direction": i,
                            "fd": fd, "adjoint": adj,
                            "rel_error": abs(fd - adj) / max(abs(fd), 1e-12)})
    return records
