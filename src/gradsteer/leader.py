"""Outer loop: leader control corrections and the full nested driver that
alternates follower response solves with leader steps until the leader's
extremum residual meets tolerance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .adjoint import (FollowerProblem, LeaderProblem, follower_cost,
                      leader_backward, leader_forward,
                      leader_gradient_arrays, leader_merit, update_control)
from .core import (ControlPartition, ControlSignal, Dataset, HistoryRecord,
                   RunReport, SolverConfig, TimeGrid)
from .follower import backtrack, solve_follower
from .models import ModelSpec, Objective, _predict_batch


@dataclass(frozen=True)
class LeaderStepResult:
    u1: ControlSignal
    grad_norm: float
    j1: float
    phi: float
    merit: float
    merit_after: float          # merit of the accepted step (== merit if none)
    gamma_used: float           # accepted step size, 0 when no step was taken
    stalled: bool


def leader_step(prob: LeaderProblem, u1: ControlSignal,
                config: SolverConfig) -> LeaderStepResult:
    """One leader sweep pair and backtracked correction of step
    config.gamma1, with the follower response `prob.u2` held fixed. When the
    residual is already at or below config.eps_tol, no step is attempted;
    config.gamma1 = 0 reports a stall without stepping; so does a step that
    the shared `backtrack` cannot make decrease the merit.
    """
    traj = leader_forward(prob, u1)
    costate = leader_backward(prob, traj)
    grad = leader_gradient_arrays(prob, u1, costate)
    gnorm = grad.norm_inf
    merit, j1, phi = leader_merit(prob, traj)

    def outcome(u1_out, merit_after, gamma_used, stalled):
        return LeaderStepResult(u1=u1_out, grad_norm=gnorm, j1=j1, phi=phi,
                                merit=merit, merit_after=merit_after,
                                gamma_used=gamma_used, stalled=stalled)

    if gnorm <= config.eps_tol:
        return outcome(u1, merit, 0.0, False)

    def trial(step: float):
        candidate = update_control(u1, grad, step)
        return candidate, leader_merit(prob, leader_forward(prob, candidate))[0]

    accepted = backtrack(trial, config.gamma1, merit) if config.gamma1 else None
    if accepted is None:
        return outcome(u1, merit, 0.0, True)
    step, candidate, cand_merit = accepted
    return outcome(candidate, cand_merit, step, False)


def solve_nested(config: SolverConfig, objective: Objective, validation: Dataset,
                 partition: ControlPartition, theta0, grid: TimeGrid,
                 u1_init: ControlSignal, u2_init: ControlSignal) -> RunReport:
    """Starting from u1_init and u2_init, alternate follower response solves
    (warm-started) with leader steps until the leader residual falls below
    eps_tol, config.max_outer is reached, or the leader stalls in an outer
    iteration where the follower took no step; every setting comes from
    `config`. A stalled follower solve is not an error: its last iterate,
    which is also its best, is the response the leader steps against. The report's values come from a final forward sweep with the
    final control pair, so logged costs are reproducible from logged
    controls.
    """
    theta0 = np.asarray(theta0, dtype=float)
    u1, u2 = u1_init, u2_init
    history = []

    converged = False
    for _ in range(config.max_outer):
        fprob = FollowerProblem(objective, config.alpha, config.beta, partition,
                                u1, grid, theta0)
        fres = solve_follower(fprob, u2, config)
        u2 = fres.u2_star

        lprob = LeaderProblem(objective, validation, config.z, config.mu,
                              partition, u2, grid, theta0,
                              config.terminal_mode)
        lres = leader_step(lprob, u1, config)
        u1 = lres.u1
        history.append(HistoryRecord(
            j1=lres.j1, j2=fres.J2_value, phi=lres.phi,
            leader_grad_norm=lres.grad_norm,
            follower_grad_norm=fres.grad_norm,
            gamma1_used=lres.gamma_used, gamma2_used=fres.gamma_last))

        if lres.grad_norm <= config.eps_tol:
            converged = fres.grad_norm <= config.inner_tol
            break
        if lres.stalled and not fres.progressed:
            break

    lprob = LeaderProblem(objective, validation, config.z, config.mu, partition,
                          u2, grid, theta0, config.terminal_mode)
    final_traj = leader_forward(lprob, u1)
    _, j1, phi = leader_merit(lprob, final_traj)
    fprob = FollowerProblem(objective, config.alpha, config.beta, partition,
                            u1, grid, theta0)
    j2 = follower_cost(fprob, final_traj, u2)

    return RunReport(theta_final=final_traj.terminal_state, J1_value=j1,
                     J2_value=j2, Phi_value=phi, outer_iterations=len(history),
                     converged=converged, history=tuple(history), u1=u1, u2=u2)


@dataclass(frozen=True)
class ResidualStats:
    mean: float
    std: float
    residuals: Tuple[float, ...]


def residual_stats(model: ModelSpec, theta, data: Dataset) -> ResidualStats:
    """Residuals y - h(x) over a dataset, with sample (m-1 divisor) std."""
    theta = np.asarray(theta, dtype=float)
    eps = data.outputs - _predict_batch(model, theta, data.inputs)
    std = float(eps.std(ddof=1)) if len(eps) > 1 else 0.0
    return ResidualStats(mean=float(eps.mean()), std=std,
                         residuals=tuple(float(e) for e in eps))
