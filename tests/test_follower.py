import numpy as np
import pytest

from gradsteer import (BasisControl, ControlPartition, GridControl, LossScale,
                       Objective, SolverConfig, TimeGrid,
                       zero_grid_control)
from gradsteer.adjoint import (FollowerProblem, follower_backward,
                               follower_cost, follower_forward,
                               follower_gradient_arrays, require_finite)
from gradsteer import follower
from gradsteer.cli import _initial_control, parse_config
from gradsteer.core import (basis_gram_matrix, node_costates,
                            sampled_basis_matrix, trapezoid_weights)
from gradsteer.follower import backtrack, msa_direction, solve_follower
from gradsteer.integrate import DivergenceError
from gradsteer.models import SingularityError

from conftest import REPO, clamped_follower_problem, linear_objective


@pytest.fixture(scope="module")
def mm_follower_problem(table_data, split, mm_model):
    objective = Objective(mm_model, split.train(table_data), LossScale.HALF)
    grid = TimeGrid(0.5, 400)
    partition = ControlPartition(np.array([1.0, 0.0]))
    return FollowerProblem(objective, 0.01, 0.1, partition,
                           zero_grid_control(grid, 2), grid,
                           np.array([3.9, 0.0178]))


def solve(prob, u2_init, config):
    """solve_follower from u2_init and its own forward sweep."""
    return solve_follower(prob, u2_init, follower_forward(prob, u2_init), config)


def full_follower_problem(alpha=1e-8, beta=0.1, theta0=1.0, T=1.0, n=100):
    """Scalar problem with zero training gradient: dynamics thetadot = u2."""
    obj = linear_objective(np.zeros((1, 1)), [0.0])
    grid = TimeGrid(T, n)
    partition = ControlPartition(np.array([0.0]))
    return FollowerProblem(obj, alpha, beta, partition,
                           zero_grid_control(grid, 1), grid,
                           np.array([float(theta0)]))


class TestSolveFollower:
    def test_zero_is_optimal_when_unforced(self):
        prob = full_follower_problem(alpha=1e-8)
        res = solve(prob, zero_grid_control(prob.grid, 1),
                    SolverConfig(inner_tol=1e-9, max_inner=50))
        assert res.converged
        assert np.abs(res.u2_star.node_values()).max() < 1e-3
        assert res.J2_value < 1e-6

    def test_monotone_history(self, mm_follower_problem):
        # an accepted step strictly lowers J2, so the last iterate is the
        # best: each iteration cap that ends on an accepted step returns a
        # lower J2 than the cap before it
        prob = mm_follower_problem
        zero = zero_grid_control(prob.grid, 2)
        costs = []
        for cap in range(1, 61):
            res = solve(prob, zero, SolverConfig(inner_tol=1e-7, max_inner=cap))
            assert res.inner_iterations == cap
            assert cap == 1 or res.gamma_last > 0.0
            costs.append(res.J2_value)
            if res.converged:
                break
        assert len(costs) > 1
        assert all(b < a for a, b in zip(costs, costs[1:]))
        # the handed-on trajectory is the sweep of the returned control
        fresh = follower_forward(prob, res.u2_star)
        assert res.trajectory.states.tobytes() == fresh.states.tobytes()
        assert res.J2_value == follower_cost(prob, fresh.state_sq,
                                             res.u2_star.node_values())

    def test_improves_on_init(self):
        prob = full_follower_problem(alpha=0.5, beta=0.2, theta0=2.0)
        init = GridControl(prob.grid, np.full((prob.grid.steps + 1, 1), 0.5))
        res = solve(prob, init, SolverConfig(inner_tol=1e-3,
                                             max_inner=100))
        j2_init = follower_cost(prob, follower_forward(prob, init).state_sq,
                                init.node_values())
        assert res.J2_value <= j2_init

    def test_determinism(self, mm_follower_problem):
        prob = mm_follower_problem
        a = solve(prob, zero_grid_control(prob.grid, 2),
                  SolverConfig(inner_tol=1e-6, max_inner=30))
        b = solve(prob, zero_grid_control(prob.grid, 2),
                  SolverConfig(inner_tol=1e-6, max_inner=30))
        assert np.array_equal(a.u2_star.values, b.u2_star.values)
        assert a.J2_value == b.J2_value
        assert a.inner_iterations == b.inner_iterations
        assert a.trajectory.states.tobytes() == b.trajectory.states.tobytes()

    def test_optimality_certificate(self):
        prob = full_follower_problem(alpha=0.5, beta=0.5, theta0=1.0, n=800)
        res = solve(prob, zero_grid_control(prob.grid, 1),
                    SolverConfig(inner_tol=1e-5, max_inner=200))
        assert res.converged
        p2 = node_costates(prob.grid, follower_backward(prob, res.trajectory))
        residual = (prob.beta * res.u2_star.node_values()
                    + p2) * prob.partition.follower_mask
        assert np.abs(residual).max() <= 1e-5
        assert res.grad_norm == np.abs(residual).max()

    def test_mask_invariance(self, mm_follower_problem):
        prob = mm_follower_problem
        res = solve(prob, zero_grid_control(prob.grid, 2),
                    SolverConfig(inner_tol=1e-7, max_inner=40))
        assert np.array_equal(res.u2_star.values[:, 0],
                              np.zeros(prob.grid.steps + 1))

    def test_cap_returns_before_line_search(self, mm_follower_problem,
                                            monkeypatch):
        # the cap iteration runs its backward sweep along the handed-in
        # trajectory and returns that iterate; a step it would then discard is
        # neither tried nor reported, so no forward sweep runs at all
        prob = mm_follower_problem
        forwards = []

        def counted(*args):
            forwards.append(args)
            return follower_forward(*args)

        monkeypatch.setattr(follower, "follower_forward", counted)
        init = zero_grid_control(prob.grid, 2)
        res = solve(prob, init, SolverConfig(inner_tol=1e-12,
                                             max_inner=1))
        assert res.u2_star is init
        assert res.gamma_last == 0.0
        assert res.inner_iterations == 1
        assert len(forwards) == 0

    def test_stall_reported_with_best(self):
        # optimum sits outside the amplitude bound: the clamp pins the control
        # and no positive step can decrease J2
        prob, init = clamped_follower_problem()
        res = solve(prob, init, SolverConfig(inner_tol=1e-10,
                                             max_inner=20))
        assert res.stalled
        assert not res.converged
        assert res.gamma_last == 0.0
        assert res.u2_star is init
        assert res.inner_iterations == 1
        assert res.J2_value > 0.0
        assert res.trajectory.states.tobytes() == \
            follower_forward(prob, init).states.tobytes()


class TestMsaStep:
    def test_grid_first_trial_is_hamiltonian_minimiser(
            self, mm_follower_problem, monkeypatch):
        # the first trial is u2 <- -p2/beta on follower coordinates;
        # the leader's coordinate of u2 does not move
        prob = mm_follower_problem
        nodes = prob.grid.nodes
        init = GridControl(prob.grid, np.column_stack(
            [np.full_like(nodes, 0.3), 0.01 * np.sin(3.0 * nodes)]))
        trials = []

        def counted(prob_, candidate):
            trials.append(candidate)
            return follower_forward(prob_, candidate)

        monkeypatch.setattr(follower, "follower_forward", counted)
        solve(prob, init, SolverConfig(inner_tol=1e-12, max_inner=2))
        p2 = node_costates(prob.grid,
                           follower_backward(prob, follower_forward(prob, init)))
        expected = -p2[:, 1] / prob.beta
        assert 0.0 < np.abs(expected).max() < init.u_max  # no clipping
        first = trials[0].values
        assert np.abs(first[:, 1] - expected).max() \
            <= 1e-14 * np.abs(expected).max()
        assert first[:, 0].tobytes() == init.values[:, 0].tobytes()

    def test_basis_direction_solves_gram_system(self, mm_follower_problem):
        prob = mm_follower_problem
        grid, k = prob.grid, 6
        coeffs = np.zeros((k, 2))
        coeffs[:3, 1] = 0.01, -0.02, 0.005
        u2 = BasisControl(grid, coeffs)
        grad = follower_gradient_arrays(
            prob, u2, follower_backward(prob, follower_forward(prob, u2)))
        d = msa_direction(u2, grad, prob.beta)
        gram = basis_gram_matrix(grid, k)
        assert gram is basis_gram_matrix(grid, k)
        assert not gram.flags.writeable
        basis = sampled_basis_matrix(grid, k, False)
        assert np.allclose(gram, basis.T @ (trapezoid_weights(grid)[:, None]
                                            * basis), rtol=1e-14, atol=0.0)
        target = grad.own / prob.beta
        assert np.abs(gram @ d - target).max() <= 1e-12 * np.abs(target).max()
        assert np.all(d[:, 0] == 0.0)  # the leader's column stays put


class TestShippedFirstSolve:
    # the first (cold) follower solve of each shipped config, as `fit` runs it
    @pytest.mark.parametrize("name, max_iterations, j2_max, residual_max", [
        ("michaelis_menten.cfg", 3, 0.1092239590996757, 9.2e-6),
        ("michaelis_menten_basis.cfg", 6, 0.10922395991571716, None),
    ])
    def test_iterations_and_cost(self, name, max_iterations, j2_max,
                                 residual_max):
        cfg = parse_config(REPO / "configs" / name)
        zero = _initial_control(cfg)  # both agents' start
        s = cfg.solver
        prob = FollowerProblem(Objective(cfg.model, cfg.split.train(cfg.data),
                                         cfg.loss_scale),
                               s.alpha, s.beta, cfg.partition, zero, cfg.grid,
                               cfg.theta0)
        res = solve(prob, zero, s)
        assert res.converged
        assert res.inner_iterations <= max_iterations
        assert res.J2_value <= j2_max
        if residual_max is not None:
            assert res.grad_norm <= residual_max


class TestBacktrack:
    def test_divergence_counts_as_rejection(self):
        steps = []

        def trial(step):
            steps.append(step)
            if step > 0.25:
                raise DivergenceError(0.5, 3, "state")
            return "candidate", 0.5

        assert backtrack(trial, 1.0, 1.0) == (0.25, "candidate", 0.5)
        assert steps == [1.0, 0.5, 0.25]

    def test_overflowing_cost_counts_as_rejection(self):
        # a cost refusal names no time or step, and is rejected like a
        # divergent sweep
        steps = []

        def trial(step):
            steps.append(step)
            return "candidate", require_finite(0.5 if step <= 0.25
                                               else float("inf"), "cost")

        assert backtrack(trial, 1.0, 1.0) == (0.25, "candidate", 0.5)
        assert steps == [1.0, 0.5, 0.25]
        with pytest.raises(DivergenceError, match="^non-finite cost$"):
            trial(1.0)

    def test_pole_counts_as_rejection(self):
        # a trial whose sweep meets the model's pole is rejected like a
        # divergent one, and the halved step is tried next
        steps = []

        def trial(step):
            steps.append(step)
            if step == 1.0:
                raise SingularityError([1.0, -0.5], 0.5)
            return "candidate", 0.5

        assert backtrack(trial, 1.0, 1.0) == (0.5, "candidate", 0.5)
        assert steps == [1.0, 0.5]

    def test_no_descent_returns_none_after_cap(self):
        steps = []

        def trial(step):
            steps.append(step)
            return "candidate", 1.0  # equal to current: not a decrease

        assert backtrack(trial, 1.0, 1.0) is None
        assert len(steps) == follower.MAX_HALVINGS + 1
        assert steps[-1] == 0.5 ** follower.MAX_HALVINGS
