import numpy as np
import pytest
from scipy.linalg import expm

from gradsteer import (Dataset, DivergenceError, LossScale, ModelKind,
                       Objective, SingularityError, TimeGrid,
                       integrate_backward, integrate_forward)
from gradsteer.core import node_costates
from gradsteer.integrate import integrate_lanes, squared_norms
from gradsteer.models import (gradient_function, hvp_function,
                              lane_gradient_function)

from conftest import linear_objective, zero_stages


def decay(y):
    # the gradient of J(y) = |y|^2 / 2, so the uncontrolled flow is y' = -y
    return y


def test_zero_field_constant_trajectory():
    grid = TimeGrid(2.0, 20)
    y0 = np.array([1.5, -0.25])
    traj = integrate_forward(lambda y: np.zeros(2), zero_stages(grid, 2), y0,
                             grid)
    for row in traj.states:
        assert np.array_equal(row, y0)


def test_exponential_decay_endpoint():
    grid = TimeGrid(1.0, 100)
    traj = integrate_forward(decay, zero_stages(grid), np.array([1.0]), grid)
    assert abs(traj.terminal_state[0] - np.exp(-1.0)) < 1e-8


def test_mm_flow_step_doubling(mm_train_one):
    grad = gradient_function(mm_train_one)
    theta0 = np.array([3.9, 0.0178])
    grid_a, grid_b = TimeGrid(1.5, 2000), TimeGrid(1.5, 4000)
    end_a = integrate_forward(grad, zero_stages(grid_a, 2), theta0, grid_a)
    end_b = integrate_forward(grad, zero_stages(grid_b, 2), theta0, grid_b)
    assert np.abs(end_a.terminal_state - end_b.terminal_state).max() < 1e-7


def test_forward_anchors_initial_state():
    grid = TimeGrid(1.0, 10)
    y0 = np.array([0.3, 0.7])
    traj = integrate_forward(decay, zero_stages(grid, 2), y0, grid)
    assert np.array_equal(traj.states[0], y0)


def test_backward_zero_field():
    grid = TimeGrid(1.0, 10)
    traj = integrate_forward(lambda y: np.zeros(1), zero_stages(grid),
                             np.zeros(1), grid)
    cs = integrate_backward(lambda theta, v: np.zeros(1), traj, np.zeros(1), 1.0)
    assert np.array_equal(cs, np.zeros((21, 1)))
    assert not cs.flags.writeable
    assert np.array_equal(node_costates(grid, cs), np.zeros((11, 1)))


def test_backward_exponential():
    # L = theta(T) on thetadot = u - theta: the costate is p(t) = e^{t - T},
    # and the sensitivities sum to dtheta(T)/du for a constant u, 1 - e^{-1}
    grid = TimeGrid(1.0, 100)
    traj = integrate_forward(decay, zero_stages(grid), np.array([1.0]), grid)
    cs = integrate_backward(lambda theta, v: v, traj, np.array([1.0]), 0.0)
    assert abs(cs.sum() - (1.0 - np.exp(-1.0))) < 1e-10
    assert cs[-1, 0] == grid.dt / 6.0
    interior = grid.nodes[1:-1]
    assert np.abs(node_costates(grid, cs)[1:-1, 0] - np.exp(interior - 1.0)).max() < 1e-5


def test_backward_linear_adjoint_matrix_exponential():
    # For h(x) = <theta, x> with zero targets the state Hessian A is constant,
    # theta(t) = expm(-A t) theta0, and the costate with zero terminal value is
    # p(t) = (alpha/2) A^{-1} (expm(-A t) - expm(A (t - 2T))) theta0. The
    # discrete costate is second-order accurate at interior nodes; at the two
    # end nodes it pairs with half a hat function, which makes it first order
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 2))
    obj = linear_objective(x, np.zeros(5))
    a_mat = x.T @ x / 5.0
    theta0 = np.array([0.8, -0.6])
    alpha = 0.35
    T = 1.0
    grid = TimeGrid(T, 200)
    traj = integrate_forward(gradient_function(obj), zero_stages(grid, 2),
                             theta0, grid)
    cs = integrate_backward(hvp_function(obj), traj, np.zeros(2), alpha)
    a_inv = np.linalg.inv(a_mat)
    for idx in (1, 50, 120, 199):
        t = grid.nodes[idx]
        exact = (alpha / 2.0) * a_inv @ (
            expm(-a_mat * t) - expm(a_mat * (t - 2 * T))) @ theta0
        assert np.abs(node_costates(grid, cs)[idx] - exact).max() < 1e-6


def test_fourth_order_convergence():
    # endpoint error shrinks by >= 12x per step halving over three refinements
    errors = []
    for n in (10, 20, 40, 80):
        grid = TimeGrid(1.0, n)
        traj = integrate_forward(decay, zero_stages(grid), np.array([1.0]),
                                 grid)
        errors.append(abs(traj.terminal_state[0] - np.exp(-1.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0


def test_determinism():
    grid = TimeGrid(1.0, 64)
    grad = lambda y: 0.3 * np.asarray(y) - np.sin(y)
    a = integrate_forward(grad, zero_stages(grid, 2), np.array([0.9, -0.4]), grid)
    b = integrate_forward(grad, zero_stages(grid, 2), np.array([0.9, -0.4]), grid)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.stages, b.stages)


def test_divergence_detected():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(DivergenceError) as err:
        integrate_forward(lambda y: [-a * a for a in y], zero_stages(grid),
                          np.array([50.0]), grid)
    assert err.value.t <= 1.0
    assert err.value.what == "state"


def test_backward_divergence_detected():
    # a Hessian of 1e300 overflows the costate in the first backward step
    grid = TimeGrid(1.0, 10)
    traj = integrate_forward(decay, zero_stages(grid), np.array([1.0]), grid)
    with pytest.raises(DivergenceError) as err:
        integrate_backward(lambda theta, v: [1e300 * a for a in v], traj,
                           np.array([1.0]), 0.0)
    assert err.value.what == "costate"
    assert 0 <= err.value.step < grid.steps
    assert err.value.t == grid.nodes[err.value.step]


def test_stage_indices_visited():
    # stage 2j is node j, stage 2j + 1 the midpoint of interval j. With a
    # zero gradient and stage s's control equal to s, each step's states
    # give its slopes: node j feeds k1, the midpoint k2 and k3, node j + 1
    # k4. The stored stage states are the ones the forward step evaluated,
    # and the backward step differentiates at them in reverse, ending at the
    # node state
    grid = TimeGrid(1.0, 3)
    h = grid.dt
    states = []

    def grad(y):
        states.append(y.copy())
        return [0.0] * len(y)

    stage_u = np.arange(2.0 * grid.steps + 1)[:, None]
    traj = integrate_forward(grad, stage_u, np.array([0.9]), grid)
    for j in range(grid.steps):
        y, y_next = traj.states[j, 0], traj.states[j + 1, 0]
        y2, y3, y4 = traj.stages[j, :, 0]
        k1, k2, k3 = (y2 - y) / (h / 2), (y3 - y) / (h / 2), (y4 - y) / h
        k4 = 6.0 * (y_next - y) / h - k1 - 2.0 * (k2 + k3)
        assert [k1, k2, k3, k4] == pytest.approx([2 * j, 2 * j + 1,
                                                  2 * j + 1, 2 * j + 2])
        assert np.array_equal(states[4 * j], traj.states[j])
        assert np.array_equal(np.array(states[4 * j + 1:4 * j + 4]),
                              traj.stages[j])
    visited = []

    def hvp(theta, v):
        visited.append(theta.copy())
        return np.zeros(1)

    integrate_backward(hvp, traj, np.zeros(1), 1.0)
    expected = [row for j in range(grid.steps - 1, -1, -1)
                for row in (*traj.stages[j][::-1], traj.states[j])]
    assert np.array_equal(np.array(visited), np.array(expected))


class TestLaneSweep:
    # integrate_lanes runs K forward sweeps at once; each lane's floats must
    # be integrate_forward's for that lane's start and controls

    @staticmethod
    def lane_problem(model, p, seed, k=5, steps=60):
        rng = np.random.default_rng(seed)
        m = 4
        inputs = (rng.normal(size=(m, p)) if model is ModelKind.LINEAR
                  else rng.uniform(0.01, 1.5, size=(m, 1)))
        obj = Objective(model, Dataset(inputs, rng.uniform(0.2, 4.0, size=m)),
                        LossScale.ONE)
        theta0 = rng.uniform(0.5, 1.5, size=(p, k))
        stage_u = rng.normal(scale=0.3, size=(2 * steps + 1, p, k))
        return obj, theta0, stage_u, TimeGrid(0.5, steps)

    @staticmethod
    def float_sweeps(obj, theta0, stage_u, grid):
        return [integrate_forward(gradient_function(obj), stage_u[:, :, k],
                                  theta0[:, k], grid)
                for k in range(theta0.shape[1])]

    CASES = [(ModelKind.MICHAELIS_MENTEN, 2), (ModelKind.LINEAR, 1),
             (ModelKind.LINEAR, 3)]

    def test_cases_cover_every_model_kind(self):
        assert {model for model, _ in self.CASES} == set(ModelKind)

    @pytest.mark.parametrize("model,p", CASES)
    def test_each_lane_is_the_float_sweep_bitwise(self, model, p):
        for seed in range(5):
            obj, theta0, stage_u, grid = self.lane_problem(model, p, seed)
            sq, theta_T = integrate_lanes(lane_gradient_function(obj), stage_u,
                                          theta0, grid)
            for k, traj in enumerate(self.float_sweeps(obj, theta0, stage_u,
                                                       grid)):
                assert np.array_equal(sq[k], squared_norms(traj.states))
                assert np.array_equal(theta_T[k], traj.terminal_state)

    def test_lane_at_the_pole_names_its_theta(self, mm_model):
        # lane 1 starts with theta1 = -w at the sample w = 0.5
        obj = Objective(mm_model, Dataset(np.array([[0.2], [0.5]]),
                                          np.array([1.0, 2.0])))
        theta0 = np.array([[2.0, 3.0, 2.5], [0.1, -0.5, 0.2]])
        grid = TimeGrid(1.0, 10)
        with pytest.raises(SingularityError) as err:
            integrate_lanes(lane_gradient_function(obj),
                            np.zeros((21, 2, 3)), theta0, grid)
        assert err.value.theta.tolist() == [3.0, -0.5]
        assert err.value.x == 0.5

    def test_diverging_lane_stops_the_sweep_where_its_own_would(self):
        # lane 0 blows up; the sweep stops at the step its float sweep does
        grid = TimeGrid(1.0, 10)
        blow_up = lambda y: [-a * a for a in y]
        with pytest.raises(DivergenceError) as lane_err:
            integrate_lanes(blow_up, np.zeros((21, 1, 2)),
                            np.array([[50.0, 0.1]]), grid)
        with pytest.raises(DivergenceError) as float_err:
            integrate_forward(blow_up, zero_stages(grid), np.array([50.0]),
                              grid)
        assert lane_err.value.what == "state"
        assert lane_err.value.step == float_err.value.step
