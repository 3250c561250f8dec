import numpy as np
import pytest

from gradsteer import (BasisControl, ControlPartition, GridControl,
                       LossScale, Objective, SolverConfig, gradient_check,
                       TimeGrid, zero_grid_control)
from gradsteer import adjoint
from gradsteer.adjoint import (FD_STEP, N_DIRECTIONS, FollowerProblem,
                               LeaderProblem, combined_stage_controls,
                               follower_backward,
                               follower_cost, follower_forward,
                               grid_inner_product, leader_backward, leader_forward,
                               leader_merit, leader_terminal_costate,
                               smooth_random_signal,
                               update_control)
from gradsteer.core import node_costates
from gradsteer.integrate import integrate_forward
from gradsteer.models import gradient_function, validation_phi

from conftest import linear_objective, sweep_gradient

ALPHA, BETA = 0.01, 0.1


@pytest.fixture(scope="module")
def small_mm(table_data, split, mm_model):
    """Fast, integration-stable configuration of the enzyme problem."""
    objective = Objective(mm_model, split.train(table_data), LossScale.HALF)
    validation = Objective(mm_model, split.validation(table_data),
                           LossScale.HALF)
    grid = TimeGrid(0.5, 400)
    partition = ControlPartition(np.array([1.0, 0.0]))
    theta0 = np.array([3.9, 0.0178])
    return objective, validation, grid, partition, theta0


def smooth(grid, dim, seed, amp=1.0):
    return smooth_random_signal(np.random.default_rng(seed), grid, dim, amp)


# Reference Hamiltonians: running cost + <costate, state velocity>, the sign
# convention the adjoint module states.

def hamiltonian_follower(objective, theta, p2, u1_value, u2_value, partition,
                         alpha, beta):
    theta = np.asarray(theta, dtype=float)
    u2m = np.asarray(u2_value, dtype=float) * partition.follower_mask
    velocity = (-np.asarray(gradient_function(objective)(theta))
                + np.asarray(u1_value, dtype=float) * partition.leader_mask
                + u2m)
    return float(velocity @ np.asarray(p2, dtype=float)
                 + 0.5 * alpha * (theta @ theta) + 0.5 * beta * (u2m @ u2m))


def hamiltonian_leader(objective, theta, p1, u1_value, u2_value, partition):
    theta = np.asarray(theta, dtype=float)
    velocity = (-np.asarray(gradient_function(objective)(theta))
                + np.asarray(u1_value, dtype=float) * partition.leader_mask
                + np.asarray(u2_value, dtype=float) * partition.follower_mask)
    return float(velocity @ np.asarray(p1, dtype=float) + 0.5 * (theta @ theta))


def stage_fd(functional, stage_u, step=1e-4):
    """Central differences of functional(stage_u) in every stage control."""
    out = np.empty_like(stage_u)
    for idx in np.ndindex(stage_u.shape):
        e = np.zeros_like(stage_u)
        e[idx] = step
        out[idx] = (functional(stage_u + e) - functional(stage_u - e)) / (2 * step)
    return out


def two_step_problems(objective, validation, seed):
    """Follower and leader problems on a 2-step grid, random controls and
    their combined stage controls."""
    grid = TimeGrid(0.004, 2)
    partition = ControlPartition(np.array([1.0, 0.0]))
    rng = np.random.default_rng(seed)
    u1 = GridControl(grid, rng.normal(size=(3, 2)))
    u2 = GridControl(grid, rng.normal(size=(3, 2)))
    theta0 = np.array([3.9, 0.0178])
    fprob = FollowerProblem(objective, 0.5, BETA, partition, u1, grid, theta0)
    lprob = LeaderProblem(objective, Objective(objective.model, validation,
                                               objective.loss_scale),
                          0.005, 50.0, partition, u2, theta0)
    return fprob, lprob, u2, combined_stage_controls(u1, u2, partition)


def terminal_lambda(grid, p_T, forcing, theta_T):
    """lambda_N = p_T + w_N * forcing * theta_N, in the sweep's own order."""
    return p_T + forcing * (0.5 * grid.dt) * theta_T


class TestHamiltonians:
    def test_follower_zero_costate_zero_control(self, mm_train_half, partition_10):
        theta = np.array([2.0, 0.5])
        val = hamiltonian_follower(mm_train_half, theta, [0.0, 0.0],
                                   [0.0, 0.0], [0.0, 0.0], partition_10,
                                   ALPHA, BETA)
        assert val == pytest.approx(0.5 * ALPHA * (theta @ theta))

    def test_follower_substitution(self, mm_train_half, partition_10):
        # independent recomputation of the defining expression
        rng = np.random.default_rng(3)
        theta = np.array([1.5, 0.4])
        p2 = rng.normal(size=2)
        u1 = rng.normal(size=2)
        u2 = rng.normal(size=2)
        got = hamiltonian_follower(mm_train_half, theta, p2, u1, u2,
                                   partition_10, ALPHA, BETA)
        velocity = (-np.asarray(gradient_function(mm_train_half)(theta))
                    + u1 * partition_10.leader_mask
                    + u2 * partition_10.follower_mask)
        u2m = u2 * partition_10.follower_mask
        expected = (velocity @ p2 + 0.5 * ALPHA * theta @ theta
                    + 0.5 * BETA * u2m @ u2m)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_leader_zero_costate(self, mm_train_half, partition_10):
        theta = np.array([1.0, 0.3])
        val = hamiltonian_leader(mm_train_half, theta, [0.0, 0.0],
                                 [1.0, 2.0], [3.0, 4.0], partition_10)
        assert val == pytest.approx(0.5 * theta @ theta)

    def test_leader_substitution(self, mm_train_half, partition_10):
        rng = np.random.default_rng(4)
        theta = np.array([2.2, 0.6])
        p1, u1, u2 = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
        got = hamiltonian_leader(mm_train_half, theta, p1, u1, u2, partition_10)
        velocity = (-np.asarray(gradient_function(mm_train_half)(theta))
                    + u1 * partition_10.leader_mask
                    + u2 * partition_10.follower_mask)
        assert got == pytest.approx(velocity @ p1 + 0.5 * theta @ theta,
                                    rel=1e-14)


class TestCostateRates:
    # the backward sweep returns dL/du at every RK4 stage; each must be the
    # derivative of the discrete functional the forward sweep computes, to
    # 1e-7 of the largest (the MM tests' theta_1 entries are ~100x smaller)

    def test_zero_everything(self, partition_10):
        obj = linear_objective(np.zeros((1, 2)), [0.0])
        grid = TimeGrid(1.0, 2)
        prob = FollowerProblem(obj, ALPHA, BETA, partition_10,
                               zero_grid_control(grid, 2), grid, np.zeros(2))
        cs = follower_backward(prob, follower_forward(prob, prob.u1))
        assert np.array_equal(cs, np.zeros((5, 2)))
        assert np.array_equal(node_costates(grid, cs), np.zeros((3, 2)))

    def test_control_width_must_match_theta0(self, partition_10):
        # 2-coordinate controls on a 1-parameter model are refused, not
        # integrated on their first coordinate alone
        rng = np.random.default_rng(3)
        obj = linear_objective(rng.normal(size=(5, 1)), rng.normal(size=5))
        grid = TimeGrid(1.0, 20)
        u = zero_grid_control(grid, 2)
        prob = FollowerProblem(obj, ALPHA, BETA, partition_10, u, grid, [0.2])
        with pytest.raises(ValueError, match="2 coordinates for the 1"):
            follower_forward(prob, u)

    def test_linear_constant_hessian(self, partition_10):
        # quadratic functional: the central difference itself is exact
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 2))
        obj = linear_objective(x, rng.normal(size=6))
        grid = TimeGrid(0.5, 2)
        stage_u = rng.normal(size=(5, 2))
        prob = FollowerProblem(obj, 0.7, BETA, partition_10,
                               zero_grid_control(grid, 2), grid, rng.normal(size=2))
        u2 = zero_grid_control(grid, 2)
        grad = gradient_function(obj)

        def j2(stage):
            traj = integrate_forward(grad, stage, prob.theta0, grid)
            return follower_cost(prob, traj.state_sq, u2.node_values())

        cs = follower_backward(
            prob, integrate_forward(grad, stage_u, prob.theta0, grid))
        assert np.allclose(cs, stage_fd(j2, stage_u),
                           rtol=1e-8, atol=1e-12)

    def test_matches_hamiltonian_theta_derivative(self, mm_train_half,
                                                  mm_validation):
        # follower: running cost alpha/2 |theta|^2, zero terminal costate
        fprob, _, u2, stage_u = two_step_problems(mm_train_half,
                                                  mm_validation, 8)
        no_cost = zero_grid_control(fprob.grid, 2)  # J2's state part only

        grad = gradient_function(mm_train_half)

        def j2(stage):
            traj = integrate_forward(grad, stage, fprob.theta0, fprob.grid)
            return follower_cost(fprob, traj.state_sq, no_cost.node_values())

        traj = integrate_forward(grad, stage_u, fprob.theta0, fprob.grid)
        cs = follower_backward(fprob, traj)
        fd = stage_fd(j2, stage_u)
        assert np.abs(cs - fd).max() <= 1e-7 * np.abs(fd).max()

    def test_leader_rate_matches_hamiltonian(self, mm_train_half,
                                             mm_validation):
        # leader: running cost |theta|^2 / 2, penalty terminal costate
        _, lprob, _, stage_u = two_step_problems(mm_train_half,
                                                 mm_validation, 13)

        grad = gradient_function(mm_train_half)

        def merit(stage):
            traj = integrate_forward(grad, stage, lprob.theta0, lprob.u2.grid)
            return leader_merit(lprob, traj.state_sq, traj.terminal_state)[0]

        traj = integrate_forward(grad, stage_u, lprob.theta0, lprob.u2.grid)
        cs = leader_backward(lprob, traj)
        fd = stage_fd(merit, stage_u)
        assert np.abs(cs - fd).max() <= 1e-7 * np.abs(fd).max()


class TestTerminalConditions:
    # the last stage's sensitivity is dt/6 * lambda_N, and lambda_N is the
    # terminal costate plus the running cost's weight at the final node

    def test_penalty_zero_residual(self, small_mm, mm_model):
        objective, validation, grid, partition, theta0 = small_mm
        traj_prob = LeaderProblem(objective, validation, 0.005, 50.0, partition,
                                  zero_grid_control(grid, 2), theta0)
        traj = leader_forward(traj_prob, zero_grid_control(grid, 2))
        # re-target z to the achieved value: the terminal costate vanishes
        phi_T = leader_merit(traj_prob, traj.state_sq, traj.terminal_state)[2]
        prob2 = LeaderProblem(objective, validation, phi_T, 50.0, partition,
                              zero_grid_control(grid, 2), theta0)
        p_T = leader_terminal_costate(prob2, traj.terminal_state)
        assert np.array_equal(p_T, np.zeros(2))
        cs = leader_backward(prob2, traj)
        lam_N = terminal_lambda(grid, p_T, 1.0, traj.terminal_state)
        assert np.array_equal(cs[-1], grid.dt / 6.0 * lam_N)

    def test_penalty_nonzero_residual(self, small_mm):
        objective, validation, grid, partition, theta0 = small_mm
        z, mu = 0.005, 50.0
        prob = LeaderProblem(objective, validation, z, mu, partition,
                             zero_grid_control(grid, 2), theta0)
        traj = leader_forward(prob, zero_grid_control(grid, 2))
        theta_T = traj.terminal_state
        phi = validation_phi(objective.model, theta_T, validation.dataset,
                             objective.loss_scale)
        dphi = np.asarray(gradient_function(Objective(
            objective.model, validation.dataset, objective.loss_scale))(theta_T))
        p_T = leader_terminal_costate(prob, theta_T)
        assert np.array_equal(p_T, mu * (phi - z) * dphi)
        assert np.all(p_T != 0.0)
        cs = leader_backward(prob, traj)
        lam_N = terminal_lambda(grid, p_T, 1.0, theta_T)
        assert np.array_equal(cs[-1], grid.dt / 6.0 * lam_N)

    def test_follower_terminal_is_zero(self, small_mm):
        objective, validation, grid, partition, theta0 = small_mm
        prob = FollowerProblem(objective, ALPHA, BETA, partition,
                               zero_grid_control(grid, 2), grid, theta0)
        traj = follower_forward(prob, zero_grid_control(grid, 2))
        cs = follower_backward(prob, traj)
        lam_N = terminal_lambda(grid, np.zeros(2), ALPHA, traj.terminal_state)
        assert np.array_equal(cs[-1], grid.dt / 6.0 * lam_N)


class TestControlGradients:
    def test_zero_problem_zero_gradient(self):
        # zero-data linear model from the origin: costate and control both zero
        obj = linear_objective(np.zeros((1, 2)), [0.0])
        grid = TimeGrid(1.0, 20)
        partition = ControlPartition(np.array([1.0, 0.0]))
        prob = FollowerProblem(obj, ALPHA, BETA, partition,
                               zero_grid_control(grid, 2), grid, np.zeros(2))
        g = sweep_gradient(prob, zero_grid_control(grid, 2))
        assert g.norm_inf == 0.0

    def test_follower_directional_derivative(self, small_mm):
        objective, validation, grid, partition, theta0 = small_mm
        u1 = GridControl(grid, smooth(grid, 2, 21, 0.1))
        u2 = GridControl(grid, smooth(grid, 2, 22, 0.1))
        prob = FollowerProblem(objective, ALPHA, BETA, partition, u1, grid,
                               theta0)
        g = sweep_gradient(prob, u2)

        def j2_at(values):
            cand = GridControl(grid, values)
            return follower_cost(prob, follower_forward(prob, cand).state_sq,
                                 cand.node_values())

        h = 1e-5
        for seed in (31, 32, 33):
            d = smooth(grid, 2, seed) * partition.follower_mask
            fd = (j2_at(u2.values + h * d) - j2_at(u2.values - h * d)) / (2 * h)
            adj = grid_inner_product(grid, g.pointwise, d)
            assert fd == pytest.approx(adj, rel=1e-7)

    def test_leader_directional_derivative_penalty(self, small_mm):
        objective, validation, grid, partition, theta0 = small_mm
        u1 = GridControl(grid, smooth(grid, 2, 41, 0.1))
        u2 = GridControl(grid, smooth(grid, 2, 42, 0.1))
        prob = LeaderProblem(objective, validation, 0.005, 100.0, partition,
                             u2, theta0)
        g = sweep_gradient(prob, u1)

        def merit_at(values):
            traj = leader_forward(prob, GridControl(grid, values))
            return leader_merit(prob, traj.state_sq, traj.terminal_state)[0]

        h = 1e-5
        for seed in (51, 52, 53):
            d = smooth(grid, 2, seed) * partition.leader_mask
            fd = (merit_at(u1.values + h * d) - merit_at(u1.values - h * d)) \
                / (2 * h)
            adj = grid_inner_product(grid, g.pointwise, d)
            assert fd == pytest.approx(adj, rel=1e-7)

    def test_mask_locality(self, small_mm):
        objective, validation, grid, partition, theta0 = small_mm
        u1 = GridControl(grid, smooth(grid, 2, 71, 0.2))
        u2 = GridControl(grid, smooth(grid, 2, 72, 0.2))
        fprob = FollowerProblem(objective, ALPHA, BETA, partition, u1, grid,
                                theta0)
        gf = sweep_gradient(fprob, u2)
        assert np.array_equal(gf.pointwise * partition.leader_mask,
                              np.zeros_like(gf.pointwise))
        lprob = LeaderProblem(objective, validation, 0.005, 100.0, partition,
                              u2, theta0)
        gl = sweep_gradient(lprob, u1)
        assert np.array_equal(gl.pointwise * partition.follower_mask,
                              np.zeros_like(gl.pointwise))

    def test_basis_coefficient_gradient(self, small_mm):
        objective, validation, grid, partition, theta0 = small_mm
        k = 5
        rng = np.random.default_rng(81)
        coeffs = rng.normal(size=(k, 2)) * 0.1
        u2 = BasisControl(grid, coeffs)
        prob = FollowerProblem(objective, ALPHA, BETA, partition,
                               zero_grid_control(grid, 2), grid, theta0)
        g = sweep_gradient(prob, u2)
        assert g.own.shape == (k, 2)

        def j2_at(c):
            cand = BasisControl(grid, c)
            return follower_cost(prob, follower_forward(prob, cand).state_sq,
                                 cand.node_values())

        h = 1e-5
        d = rng.normal(size=(k, 2))
        d[:, 0] = 0.0  # follower coordinate only
        fd = (j2_at(coeffs + h * d) - j2_at(coeffs - h * d)) / (2 * h)
        assert fd == pytest.approx(float(np.sum(g.own * d)), rel=1e-7)


class TestUpdateControl:
    def test_mask_invariance_grid(self):
        grid = TimeGrid(1.0, 10)
        u = GridControl(grid, np.ones((11, 2)))
        step = np.ones((11, 2)) * np.array([0.0, 1.0])
        out = update_control(u, step, 0.5)
        assert np.array_equal(out.values[:, 0], u.values[:, 0])
        assert np.allclose(out.values[:, 1], 0.5)

    def test_clamping(self):
        grid = TimeGrid(1.0, 10)
        u = GridControl(grid, np.zeros((11, 1)), u_max=2.0)
        step = -np.ones((11, 1)) * 100.0
        out = update_control(u, step, 1.0)
        assert np.all(out.values == 2.0)


class TestCheckProtocol:
    def test_linear_model_high_accuracy(self):
        # quadratic case: the finite difference itself is exact, and the
        # adjoint is exact for the discrete functional, so the agreement is
        # at rounding level on coarse and fine grids alike
        rng = np.random.default_rng(5)
        obj = linear_objective(rng.normal(size=(6, 2)), rng.normal(size=6))
        validation = linear_objective(rng.normal(size=(4, 2)),
                                      rng.normal(size=4))
        partition = ControlPartition(np.array([1.0, 0.0]))
        cfg = SolverConfig(alpha=0.5, beta=0.5, mu=10.0, z=0.0)
        for n in (40, 160, 640):
            records = gradient_check(obj, validation, partition, np.zeros(2),
                                     TimeGrid(1.0, n), cfg, seed=1)
            assert max(r["rel_error"] for r in records) <= 1e-8, n

    def test_fault_injection_fails(self, small_mm):
        objective, validation, grid, partition, theta0 = small_mm
        cfg = SolverConfig(alpha=ALPHA, beta=BETA, mu=100.0)
        records = gradient_check(objective, validation, partition, theta0,
                                 grid, cfg, seed=2, corruption=1e-2)
        assert any(r["rel_error"] > 1e-3 for r in records)

    def test_one_sweep_pair_for_the_base_controls(self, small_mm,
                                                 monkeypatch):
        # the base pair is integrated once and both backward sweeps run on
        # it; every candidate of every direction is a lane of one sweep
        objective, validation, grid, partition, theta0 = small_mm
        calls = {"integrate_forward": 0, "integrate_backward": 0,
                 "integrate_lanes": 0}

        def count(name):
            original = getattr(adjoint, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(adjoint, name, counted)

        for name in calls:
            count(name)
        cfg = SolverConfig(alpha=ALPHA, beta=BETA, mu=100.0)
        gradient_check(objective, validation, partition, theta0, grid, cfg,
                       seed=0)
        assert calls == {"integrate_forward": 1, "integrate_backward": 2,
                         "integrate_lanes": 1}

    @pytest.mark.parametrize("mask", ["1,0", "0,1", "1,1", "0,0"])
    def test_lanes_are_one_sweep_per_candidate(self, small_mm, mask):
        # the protocol with one forward sweep per candidate pair, as the
        # reference: every difference quotient must be its float for float,
        # whichever coordinates each agent owns. An agent that owns none has
        # no gradient to check, and no records
        objective, validation, grid, _, theta0 = small_mm
        partition = ControlPartition(np.array(mask.split(","), dtype=float))
        cfg = SolverConfig(alpha=ALPHA, beta=BETA, mu=100.0)
        records = gradient_check(objective, validation, partition, theta0,
                                 grid, cfg, seed=4)
        rng = np.random.default_rng(4)
        u1, u2 = (GridControl(grid, smooth_random_signal(rng, grid, 2, 0.1))
                  for _ in range(2))
        fprob = FollowerProblem(objective, ALPHA, BETA, partition, u1, grid,
                                theta0)
        lprob = LeaderProblem(objective, validation, cfg.z, cfg.mu, partition,
                              u2, theta0)

        def j2_at(values):
            cand = GridControl(grid, values)
            return follower_cost(fprob, follower_forward(fprob, cand).state_sq,
                                 cand.node_values())

        def merit_at(values):
            traj = leader_forward(lprob, GridControl(grid, values))
            return leader_merit(lprob, traj.state_sq, traj.terminal_state)[0]

        want = []
        for i in range(N_DIRECTIONS):
            d = smooth_random_signal(rng, grid, 2, 1.0)
            for functional, value_at, u, owned in (
                    ("follower", j2_at, u2, partition.follower_mask),
                    ("leader", merit_at, u1, partition.leader_mask)):
                if not owned.any():
                    continue
                dm = d * owned
                want.append((functional, i,
                             float(value_at(u.values + FD_STEP * dm)
                                   - value_at(u.values - FD_STEP * dm))
                             / (2 * FD_STEP)))
        assert len(want) == N_DIRECTIONS * (2 if mask in ("1,0", "0,1")
                                            else 1)
        assert [(r["functional"], r["direction"], r["fd"])
                for r in records] == want
