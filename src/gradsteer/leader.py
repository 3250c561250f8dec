"""Outer loop: leader control corrections and the full nested driver that
alternates follower response solves with leader steps until the leader's
extremum residual meets tolerance."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .adjoint import (FollowerProblem, LeaderProblem, follower_cost,
                      leader_backward, leader_forward,
                      leader_gradient_arrays, leader_merit, update_control)
from .core import (ControlPartition, ControlSignal, HistoryRecord, RunReport,
                   SolverConfig, Trajectory)
from .follower import backtrack, solve_follower
from .models import Objective


@dataclass(frozen=True)
class LeaderStepResult:
    u1: ControlSignal
    trajectory: Trajectory      # the forward sweep of u1 (with prob.u2)
    grad_norm: float
    j1: float
    phi: float
    gamma_used: float           # accepted step size, 0 when no step was taken
    stalled: bool
    converged: bool             # update_norm at or below eps_tol: no step tried


def leader_step(prob: LeaderProblem, u1: ControlSignal, traj: Trajectory,
                config: SolverConfig) -> LeaderStepResult:
    """One leader backward sweep along `traj`, the forward sweep of u1 with
    the follower response `prob.u2` held fixed, and a backtracked correction
    of step config.gamma1; the result's `trajectory` is the accepted trial's
    sweep, or `traj` when no step is taken. When the gradient's update_norm
    is already at or below config.eps_tol, the result is `converged` and no
    step is attempted; a step that the shared `backtrack` cannot make
    decrease the merit reports a stall.
    """
    grad = leader_gradient_arrays(prob, u1, leader_backward(prob, traj))
    gnorm = grad.norm_inf
    merit, j1, phi = leader_merit(prob, traj.state_sq, traj.terminal_state)

    def trial(step: float):
        candidate = update_control(u1, grad.own, step)
        cand_traj = leader_forward(prob, candidate)
        return (candidate, cand_traj), leader_merit(
            prob, cand_traj.state_sq, cand_traj.terminal_state)[0]

    converged = grad.update_norm <= config.eps_tol
    accepted = None if converged else backtrack(trial, config.gamma1, merit)
    step, (u1_out, traj_out), _ = accepted or (0.0, (u1, traj), merit)
    return LeaderStepResult(u1=u1_out, trajectory=traj_out, grad_norm=gnorm,
                            j1=j1, phi=phi, gamma_used=step,
                            stalled=not converged and accepted is None,
                            converged=converged)


def solve_nested(config: SolverConfig, objective: Objective, validation: Objective,
                 partition: ControlPartition, theta0,
                 start: ControlSignal) -> RunReport:
    """Starting both agents from `start`, on its grid, alternate follower
    response solves (warm-started) with leader steps until the leader step is
    `converged` (the run is converged when that iteration's follower solve is
    too), config.max_outer is reached, or the leader stalls in an outer
    iteration where the follower took no step; every setting comes from
    `config`. A stalled follower solve is not an error: its last iterate,
    which is also its best, is the response the leader steps against. Each
    agent hands on the forward sweep of the pair it returns, so each pair is
    integrated once; the report's values and `trajectory` come from the
    final pair's sweep.
    """
    # the two problems hold the current pair: fprob.u1 and lprob.u2
    fprob = FollowerProblem(objective, config.alpha, config.beta, partition,
                            start, start.grid, theta0)
    lprob = LeaderProblem(objective, validation, config.z, config.mu, partition,
                          start, theta0)
    traj = leader_forward(lprob, start)
    history = []
    converged = False
    for _ in range(config.max_outer):
        fres = solve_follower(fprob, lprob.u2, traj, config)
        lprob = replace(lprob, u2=fres.u2_star)
        lres = leader_step(lprob, fprob.u1, fres.trajectory, config)
        fprob, traj = replace(fprob, u1=lres.u1), lres.trajectory
        history.append(HistoryRecord(
            J1=lres.j1, J2=fres.J2_value, Phi=lres.phi,
            leader_grad_norm=lres.grad_norm,
            follower_grad_norm=fres.grad_norm,
            gamma1_used=lres.gamma_used, gamma2_used=fres.gamma_last))

        if lres.converged:
            converged = fres.converged
            break
        if lres.stalled and fres.gamma_last == 0.0:
            break

    _, j1, phi = leader_merit(lprob, traj.state_sq, traj.terminal_state)
    return RunReport(trajectory=traj, J1_value=j1,
                     J2_value=follower_cost(fprob, traj.state_sq,
                                            lprob.u2.node_values()),
                     Phi_value=phi, outer_iterations=len(history),
                     converged=converged, history=tuple(history),
                     u1=fprob.u1, u2=lprob.u2)
