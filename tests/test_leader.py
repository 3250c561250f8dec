import numpy as np
import pytest

from gradsteer import (BasisControl, ControlPartition, GridControl, LossScale,
                       Objective, SolverConfig, TimeGrid, solve_nested,
                       zero_grid_control)
from gradsteer import adjoint, follower, leader
from gradsteer.adjoint import (FollowerProblem, LeaderProblem,
                               follower_backward, follower_cost,
                               follower_forward, leader_forward, leader_merit)
from gradsteer.core import node_costates
from gradsteer.follower import solve_follower
from gradsteer.integrate import integrate_forward
from gradsteer.leader import leader_step
from gradsteer.models import gradient_function

from conftest import clamped_follower_problem, linear_objective, zero_stages


@pytest.fixture(scope="module")
def small_setup(table_data, split, mm_model):
    objective = Objective(mm_model, split.train(table_data), LossScale.HALF)
    validation = Objective(mm_model, split.validation(table_data),
                           LossScale.HALF)
    grid = TimeGrid(0.5, 400)
    partition = ControlPartition(np.array([1.0, 0.0]))
    theta0 = np.array([3.9, 0.0178])
    return objective, validation, grid, partition, theta0


def scalar_lq_problem(k=1.0, alpha=1.0, beta=1.0, T=1.0, n=200, theta0=1.0):
    """Follower-only linear-quadratic instance: thetadot = -k theta + u2."""
    obj = linear_objective(np.array([[np.sqrt(k)]]), [0.0])
    validation = linear_objective(np.array([[0.0]]), [0.0])
    grid = TimeGrid(T, n)
    partition = ControlPartition(np.array([0.0]))
    return obj, validation, grid, partition, np.array([float(theta0)])


def step(prob, u1, config):
    """leader_step from u1 and its own forward sweep."""
    return leader_step(prob, u1, leader_forward(prob, u1), config)


class TestLeaderStep:
    def test_zero_gradient_leaves_control(self):
        # zero-data linear model resting at the origin with mu 0: the running
        # cost and the terminal costate vanish, so the costate is zero
        objective = linear_objective(np.zeros((1, 2)), [0.0])
        validation = linear_objective(np.zeros((1, 2)), [0.0])
        grid = TimeGrid(1.0, 20)
        partition = ControlPartition(np.array([1.0, 0.0]))
        prob = LeaderProblem(objective, validation, 0.005, 0.0, partition,
                             zero_grid_control(grid, 2), np.zeros(2))
        u1 = zero_grid_control(grid, 2)
        res = step(prob, u1, SolverConfig(gamma1=0.5))
        assert res.grad_norm == 0.0
        assert res.u1 is u1
        assert not res.stalled

    def test_single_step_decreases_merit(self, small_setup):
        objective, validation, grid, partition, theta0 = small_setup
        prob = LeaderProblem(objective, validation, 0.005, 100.0, partition,
                             zero_grid_control(grid, 2), theta0)
        u1 = zero_grid_control(grid, 2)
        res = step(prob, u1, SolverConfig(gamma1=0.01))
        assert res.gamma_used > 0.0
        before = leader_forward(prob, u1)
        assert leader_merit(prob, res.trajectory.state_sq,
                            res.trajectory.terminal_state)[0] \
            < leader_merit(prob, before.state_sq, before.terminal_state)[0]
        # the handed-on trajectory is the sweep of the accepted control
        fresh = leader_forward(prob, res.u1)
        assert res.trajectory.states.tobytes() == fresh.states.tobytes()

    def test_mask_invariance(self, small_setup):
        objective, validation, grid, partition, theta0 = small_setup
        prob = LeaderProblem(objective, validation, 0.005, 100.0, partition,
                             zero_grid_control(grid, 2), theta0)
        res = step(prob, zero_grid_control(grid, 2), SolverConfig(gamma1=0.01))
        assert res.gamma_used > 0.0
        assert np.array_equal(res.u1.values[:, 1], np.zeros(grid.steps + 1))

    def test_stall_at_bound_leaves_control(self):
        # the leader's control starts at -u_max and its costate is positive
        # (mu = 0, theta > 0, zero training gradient), so every trial step is
        # clamped back onto the current control and none decreases the merit
        objective = linear_objective(np.zeros((1, 1)), [0.0])
        grid = TimeGrid(1.0, 50)
        partition = ControlPartition(np.array([1.0]))
        prob = LeaderProblem(objective, objective, 0.0, 0.0, partition,
                             zero_grid_control(grid, 1), np.array([1.0]))
        u1 = GridControl(grid, np.full((51, 1), -0.01), u_max=0.01)
        res = step(prob, u1, SolverConfig(gamma1=0.5))
        assert res.grad_norm > 0.5
        assert res.stalled
        assert res.u1 is u1
        assert res.gamma_used == 0.0
        fresh = leader_forward(prob, u1)
        assert res.trajectory.states.tobytes() == fresh.states.tobytes()
        assert leader_merit(prob, res.trajectory.state_sq,
                            res.trajectory.terminal_state) \
            == leader_merit(prob, fresh.state_sq, fresh.terminal_state)


class TestSolveNested:
    def test_stalling_follower_returns_report(self):
        # both agents start from the follower's pinned control; the follower
        # stalls on its first iteration, and the leader owns no coordinate,
        # so its residual is zero and the run ends after one outer iteration
        # with the follower's last (initial) iterate
        fprob, u2 = clamped_follower_problem()
        validation = linear_objective(np.zeros((1, 1)), [0.0])
        config = SolverConfig(alpha=fprob.alpha, beta=fprob.beta,
                              inner_tol=1e-10, max_inner=20)
        report = solve_nested(config, fprob.objective, validation,
                              fprob.partition, fprob.theta0, u2)
        assert report.u2 is u2
        assert report.outer_iterations == 1
        assert not report.converged
        assert report.history[0].gamma2_used == 0.0
        assert report.J2_value > 0.0

    def test_stall_of_both_agents_stops_the_run(self):
        # both agents start pinned at -u_max with costates pushing them
        # further out (zero training gradient, theta > 0, mu = 0): the
        # follower stalls without a step, then the leader stalls, so the run
        # stops after one outer iteration though max_outer allows three
        objective = linear_objective(np.zeros((1, 2)), [0.0])
        grid = TimeGrid(1.0, 50)
        partition = ControlPartition(np.array([1.0, 0.0]))
        start = GridControl(grid, np.full((51, 2), -0.01), u_max=0.01)
        config = SolverConfig(alpha=1.0, beta=0.01, mu=0.0, z=0.0,
                              inner_tol=1e-10, max_inner=20, max_outer=3)
        report = solve_nested(config, objective, objective, partition,
                              np.array([1.0, 1.0]), start)
        assert report.outer_iterations == 1
        assert not report.converged
        assert report.history[0].leader_grad_norm > config.eps_tol
        assert report.history[0].gamma1_used == 0.0
        assert report.history[0].gamma2_used == 0.0
        assert report.u1 is start and report.u2 is start

    def test_reduction_to_uncontrolled_flow(self, small_setup):
        # both agents frozen at zero: the follower's cap of one iteration
        # returns its start, and an eps_tol above the leader's first residual
        # leaves the leader converged without a step
        objective, validation, grid, partition, theta0 = small_setup
        config = SolverConfig(alpha=0.01, beta=0.1, eps_tol=10.0,
                              max_inner=1, max_outer=5)
        report = solve_nested(config, objective, validation, partition,
                              theta0, zero_grid_control(grid, 2))
        plain = integrate_forward(gradient_function(objective),
                                  zero_stages(grid, 2), theta0, grid)
        assert report.theta_final.tobytes() == plain.terminal_state.tobytes()
        assert report.history[0].leader_grad_norm < config.eps_tol
        assert not report.converged  # the follower stopped at its cap
        assert report.outer_iterations == 1
        # the full controlled trajectory replays the uncontrolled one bitwise
        lprob = LeaderProblem(objective, validation, config.z, config.mu,
                              partition, report.u2, theta0)
        traj = leader_forward(lprob, report.u1)
        assert traj.states.tobytes() == plain.states.tobytes()

    def test_converged_certificates_lq(self):
        objective, validation, grid, partition, theta0 = \
            scalar_lq_problem(n=800)
        config = SolverConfig(alpha=1.0, beta=1.0, gamma1=0.5,
                              eps_tol=1e-6, inner_tol=1e-5, mu=0.0, z=0.0,
                              max_outer=3, max_inner=300)
        report = solve_nested(config, objective, validation, partition,
                              theta0, zero_grid_control(grid, 1))
        assert report.converged
        last = report.history[-1]
        assert last.leader_grad_norm <= config.eps_tol
        assert last.follower_grad_norm <= config.inner_tol
        # recompute the pointwise extremum residual from the logged controls
        fprob = FollowerProblem(objective, config.alpha, config.beta,
                                partition, report.u1, grid, theta0)
        p2 = node_costates(grid, follower_backward(
            fprob, follower_forward(fprob, report.u2)))
        residual = (config.beta * report.u2.node_values()
                    + p2) * partition.follower_mask
        assert np.abs(residual).max() <= config.inner_tol

    def test_basis_run_reports_converged(self):
        # four basis functions cannot bring the pointwise residual down to
        # inner_tol; the coefficient gradient, which the follower stops on,
        # gets there, and that is what both converged flags report
        objective, validation, grid, partition, theta0 = \
            scalar_lq_problem(n=800)
        config = SolverConfig(alpha=1.0, beta=1.0, gamma1=0.5,
                              eps_tol=1e-6, inner_tol=1e-5, mu=0.0, z=0.0,
                              max_outer=3, max_inner=300)
        zero = BasisControl(grid, np.zeros((4, 1)))
        fprob = FollowerProblem(objective, config.alpha, config.beta,
                                partition, zero, grid, theta0)
        fres = solve_follower(fprob, zero, follower_forward(fprob, zero),
                              config)
        assert fres.converged
        assert fres.grad_norm > 10 * config.inner_tol
        report = solve_nested(config, objective, validation, partition,
                              theta0, zero)
        assert report.converged
        assert report.history[-1].follower_grad_norm > 10 * config.inner_tol

    def test_history_complete_and_replayable(self, small_setup):
        objective, validation, grid, partition, theta0 = small_setup
        config = SolverConfig(alpha=0.01, beta=0.1, gamma1=0.01,
                              inner_tol=1e-6, mu=100.0, max_outer=4,
                              max_inner=80)
        report = solve_nested(config, objective, validation, partition,
                              theta0, zero_grid_control(grid, 2))
        assert len(report.history) == report.outer_iterations
        # replay: logged controls reproduce logged final costs
        lprob = LeaderProblem(objective, validation, config.z, config.mu,
                              partition, report.u2, theta0)
        traj = leader_forward(lprob, report.u1)
        _, j1, phi = leader_merit(lprob, traj.state_sq, traj.terminal_state)
        fprob = FollowerProblem(objective, config.alpha, config.beta,
                                partition, report.u1, grid, theta0)
        j2 = follower_cost(fprob, traj.state_sq, report.u2.node_values())
        assert abs(j1 - report.J1_value) <= 1e-12
        assert abs(phi - report.Phi_value) <= 1e-12
        assert abs(j2 - report.J2_value) <= 1e-12
        assert np.abs(traj.terminal_state - report.theta_final).max() == 0.0
        assert report.trajectory.states.tobytes() == traj.states.tobytes()

    def test_determinism(self, small_setup):
        objective, validation, grid, partition, theta0 = small_setup
        config = SolverConfig(alpha=0.01, beta=0.1, gamma1=0.01,
                              inner_tol=1e-5, mu=100.0, max_outer=3,
                              max_inner=50)
        a = solve_nested(config, objective, validation, partition, theta0,
                         zero_grid_control(grid, 2))
        b = solve_nested(config, objective, validation, partition, theta0,
                         zero_grid_control(grid, 2))
        assert np.array_equal(a.theta_final, b.theta_final)
        assert a.history == b.history
        assert np.array_equal(a.u1.values, b.u1.values)

    def test_one_forward_sweep_per_control_pair(self, small_setup,
                                                monkeypatch):
        # one sweep of the initial pair, then one per trial of either agent:
        # no pair that a trial has integrated is integrated again
        objective, validation, grid, partition, theta0 = small_setup
        calls = {"sweeps": 0, "follower": 0, "leader": 0}

        def count(module, name, key):
            original = getattr(module, name)

            def counted(*args):
                calls[key] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        count(adjoint, "integrate_forward", "sweeps")
        count(follower, "update_control", "follower")
        count(leader, "update_control", "leader")
        config = SolverConfig(alpha=0.01, beta=0.1, gamma1=0.01,
                              inner_tol=1e-5, mu=100.0, max_outer=3,
                              max_inner=50)
        solve_nested(config, objective, validation, partition, theta0,
                     zero_grid_control(grid, 2))
        assert calls["follower"] > 0 and calls["leader"] > 0
        assert calls["sweeps"] == 1 + calls["follower"] + calls["leader"]

    def test_merit_progress_within_accepted_steps(self, small_setup):
        # every accepted leader step decreases the frozen-follower merit
        objective, validation, grid, partition, theta0 = small_setup
        u1 = zero_grid_control(grid, 2)
        u2 = zero_grid_control(grid, 2)
        config = SolverConfig(alpha=0.01, beta=0.1, gamma1=0.01,
                              inner_tol=1e-5, mu=100.0, max_inner=60)
        traj = None
        for _ in range(3):
            fprob = FollowerProblem(objective, config.alpha, config.beta,
                                    partition, u1, grid, theta0)
            if traj is None:
                traj = follower_forward(fprob, u2)
            fres = solve_follower(fprob, u2, traj, config)
            u2 = fres.u2_star
            lprob = LeaderProblem(objective, validation, config.z, config.mu,
                                  partition, u2, theta0)
            lres = leader_step(lprob, u1, fres.trajectory, config)
            after, before = lres.trajectory, fres.trajectory
            assert leader_merit(lprob, after.state_sq,
                                after.terminal_state)[0] \
                <= leader_merit(lprob, before.state_sq,
                                before.terminal_state)[0]
            u1, traj = lres.u1, lres.trajectory
