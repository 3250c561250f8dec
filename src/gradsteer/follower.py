"""Inner loop: successive approximation of the follower's optimal response
to a fixed leader control. Each iteration runs a backward sweep and steps
toward the pointwise minimiser of the follower Hamiltonian, u2 = -p2/beta
(the method of successive approximations, MSA), with a backtracking
safeguard: plain MSA can overshoot (Li, Chen, Tai & E 2018, JMLR 18). The
backtracking line search is shared with the leader's step."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .adjoint import (ControlGradient, FollowerProblem, follower_backward,
                      follower_cost, follower_forward, follower_gradient_arrays,
                      update_control)
from .core import Array, ControlSignal, SolverConfig, Trajectory
from .integrate import DivergenceError
from .models import SingularityError

MAX_HALVINGS = 30


def backtrack(trial: Callable[[float], tuple], step: float,
              current: float) -> Optional[tuple]:
    """Try `trial` at step, step/2, ... (at most MAX_HALVINGS halvings) and
    return (step, candidate, value) for the first trial whose value is
    strictly below `current`; a trial that diverges or meets the model's pole
    counts as rejected. Returns None when no trial descends."""
    for _ in range(MAX_HALVINGS + 1):
        try:
            candidate, value = trial(step)
        except (DivergenceError, SingularityError):
            step *= 0.5
            continue
        if value < current:
            return step, candidate, value
        step *= 0.5
    return None


def msa_direction(u2: ControlSignal, grad: ControlGradient,
                  beta: float) -> Array:
    """The follower's step in u2's own coordinates and its Hamiltonian's own
    metric: a full step (update_control with step 1) is the MSA update,
    d = M^-1 grad / beta for the metric M of u2's control cost
    (u2.solve_metric). On a grid control M is the identity, so u2 moves to
    -p2/beta on follower coordinates; on a basis control M is the Gram matrix
    G of the node-sampled basis, the same minimiser taken in coefficient
    space, where the cost is beta/2 * a^T G a."""
    return u2.solve_metric(grad.own) / beta


@dataclass(frozen=True)
class FollowerResult:
    u2_star: ControlSignal
    trajectory: Trajectory            # the forward sweep of u2_star
    J2_value: float
    inner_iterations: int
    grad_norm: float
    converged: bool
    gamma_last: float                 # last accepted MSA step fraction, 0 if none


def solve_follower(prob: FollowerProblem, start: ControlSignal,
                   traj: Trajectory, config: SolverConfig) -> FollowerResult:
    """Iterate sweeps and MSA steps (msa_direction) from `start`, whose
    forward sweep (with prob.u1) is `traj`, until the gradient's update_norm,
    in u2's own coordinates, drops below config.inner_tol; `converged`
    reports that test, and `grad_norm` is the pointwise extremum residual
    (beta*u2 + p2 on follower coordinates). Each accepted trial hands on its
    own sweep; the result's `trajectory` is u2_star's.

    The first trial takes the full MSA step, and `backtrack` halves it until
    J2 strictly decreases, so the returned (last) iterate is also the best.
    Iteration config.max_inner runs its backward sweep and returns that
    iterate without a line search. When a step cannot decrease J2 after
    MAX_HALVINGS halvings, the current iterate is returned; `gamma_last` is
    0.0 exactly when the call took no step.
    """
    u2 = start
    j2 = follower_cost(prob, traj.state_sq, u2.node_values())
    gamma_last = 0.0

    def trial(step: float):
        candidate = update_control(u2, direction, step)
        cand_traj = follower_forward(prob, candidate)
        return (candidate, cand_traj), follower_cost(
            prob, cand_traj.state_sq, candidate.node_values())

    for it in range(1, config.max_inner + 1):
        grad = follower_gradient_arrays(prob, u2, follower_backward(prob, traj))
        converged = grad.update_norm <= config.inner_tol
        if converged or it == config.max_inner:
            break
        direction = msa_direction(u2, grad, prob.beta)
        accepted = backtrack(trial, 1.0, j2)
        if accepted is None:
            break
        gamma_last, (u2, traj), j2 = accepted
    return FollowerResult(u2_star=u2, trajectory=traj, J2_value=j2,
                          inner_iterations=it, grad_norm=grad.norm_inf,
                          converged=converged, gamma_last=gamma_last)
