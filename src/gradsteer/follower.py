"""Inner loop: successive approximation of the follower's optimal response
to a fixed leader control. Each iteration runs a backward sweep and steps
toward the pointwise minimiser of the follower Hamiltonian, u2 = -p2/beta
(the method of successive approximations, MSA), with a backtracking
safeguard: plain MSA can overshoot (Li, Chen, Tai & E 2018, JMLR 18). The
backtracking line search is shared with the leader's step."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .adjoint import (ControlGradient, FollowerProblem, follower_backward,
                      follower_cost, follower_forward, follower_gradient_arrays,
                      update_control)
from .core import ControlSignal, SolverConfig, Trajectory, basis_gram_matrix
from .integrate import DivergenceError

MAX_HALVINGS = 30


def backtrack(trial: Callable[[float], tuple], step: float,
              current: float) -> Optional[tuple]:
    """Try `trial` at step, step/2, ... (at most MAX_HALVINGS halvings) and
    return (step, candidate, value) for the first trial whose value is
    strictly below `current`; a trial that diverges counts as rejected.
    Returns None when no trial descends."""
    for _ in range(MAX_HALVINGS + 1):
        try:
            candidate, value = trial(step)
        except DivergenceError:
            step *= 0.5
            continue
        if value < current:
            return step, candidate, value
        step *= 0.5
    return None


def msa_direction(u2: ControlSignal, grad: ControlGradient,
                  beta: float) -> ControlGradient:
    """The follower's step in its Hamiltonian's own metric: a full step
    (update_control with step 1) is the MSA update. On a grid control that is
    grad/beta, so u2 moves to -p2/beta on follower coordinates. On a basis
    control the coefficient gradient is preconditioned by the Gram matrix G
    of the node-sampled basis, d = G^-1 grad / beta, the same minimiser taken
    in coefficient space, where the control cost is beta/2 * a^T G a."""
    if grad.coefficients is None:
        return ControlGradient(pointwise=grad.pointwise / beta)
    coeffs = np.linalg.solve(basis_gram_matrix(u2.grid, u2.n_functions),
                             grad.coefficients) / beta
    return ControlGradient(pointwise=grad.pointwise / beta, coefficients=coeffs)


@dataclass(frozen=True)
class FollowerResult:
    u2_star: ControlSignal
    trajectory: Trajectory            # the forward sweep of u2_star
    J2_value: float
    inner_iterations: int
    grad_norm: float
    converged: bool
    stalled: bool                     # backtracking found no descent step
    gamma_last: float                 # last accepted MSA step fraction, 0 if none
    j2_history: Tuple[float, ...]     # accepted-iterate costs, strictly decreasing

    @property
    def progressed(self) -> bool:
        return self.gamma_last > 0.0


def solve_follower(prob: FollowerProblem, u2_init: ControlSignal,
                   traj: Trajectory, config: SolverConfig) -> FollowerResult:
    """Iterate sweeps and MSA steps (msa_direction) from u2_init, whose
    forward sweep (with prob.u1) is `traj`, until the gradient's update_norm
    drops below config.inner_tol: the pointwise extremum residual
    (beta*u2 + p2 on follower coordinates) for a grid control, its
    coefficient gradient for a basis control. `converged` reports that test;
    `grad_norm` is the pointwise residual either way. Each accepted trial
    hands on its own sweep; the result's `trajectory` is u2_star's.

    The first trial takes the full MSA step, and `backtrack` halves it until
    J2 strictly decreases, so the returned (last) iterate is also the best.
    Iteration config.max_inner runs its backward sweep and returns that
    iterate without a line search. When a step cannot decrease J2 after
    MAX_HALVINGS halvings, the current iterate is returned with `stalled`
    set.
    """
    u2 = u2_init
    j2 = follower_cost(prob, traj, u2)
    history = []
    gamma_last = 0.0

    def result(converged: bool, stalled: bool = False) -> FollowerResult:
        return FollowerResult(
            u2_star=u2, trajectory=traj, J2_value=j2,
            inner_iterations=it, grad_norm=gnorm, converged=converged,
            stalled=stalled, gamma_last=gamma_last, j2_history=tuple(history))

    def trial(step: float):
        candidate = update_control(u2, direction, step)
        cand_traj = follower_forward(prob, candidate)
        return (candidate, cand_traj), follower_cost(prob, cand_traj, candidate)

    for it in range(1, config.max_inner + 1):
        grad = follower_gradient_arrays(prob, u2, follower_backward(prob, traj))
        gnorm = grad.norm_inf
        history.append(j2)
        if grad.update_norm <= config.inner_tol:
            # for a basis control the pointwise residual may stay above tol
            # by the representation error
            return result(True)
        if it == config.max_inner:
            return result(False)

        direction = msa_direction(u2, grad, prob.beta)
        accepted = backtrack(trial, 1.0, j2)
        if accepted is None:
            return result(False, stalled=True)
        gamma_last, (u2, traj), j2 = accepted
