import numpy as np
import pytest
from scipy.linalg import expm

from gradsteer import (DivergenceError, integrate_backward, integrate_forward,
                       make_time_grid)
from gradsteer.core import node_costates
from gradsteer.models import hvp_function

from conftest import linear_objective, uncontrolled_rate


def test_zero_field_constant_trajectory():
    grid = make_time_grid(2.0, 20)
    y0 = np.array([1.5, -0.25])
    traj = integrate_forward(lambda s, y: np.zeros(2), y0, grid)
    for row in traj.states:
        assert np.array_equal(row, y0)


def test_exponential_decay_endpoint():
    grid = make_time_grid(1.0, 100)
    traj = integrate_forward(lambda s, y: -y, np.array([1.0]), grid)
    assert abs(traj.terminal_state[0] - np.exp(-1.0)) < 1e-8


def test_mm_flow_step_doubling(mm_train_one):
    rate = uncontrolled_rate(mm_train_one)
    theta0 = np.array([3.9, 0.0178])
    end_a = integrate_forward(rate, theta0, make_time_grid(1.5, 2000))
    end_b = integrate_forward(rate, theta0, make_time_grid(1.5, 4000))
    assert np.abs(end_a.terminal_state - end_b.terminal_state).max() < 1e-7


def test_forward_anchors_initial_state():
    grid = make_time_grid(1.0, 10)
    y0 = np.array([0.3, 0.7])
    traj = integrate_forward(lambda s, y: -y, y0, grid)
    assert np.array_equal(traj.states[0], y0)


def test_backward_zero_field():
    grid = make_time_grid(1.0, 10)
    traj = integrate_forward(lambda s, y: np.zeros(1), np.zeros(1), grid)
    cs = integrate_backward(lambda theta, v: np.zeros(1), traj, np.zeros(1), 1.0)
    assert np.array_equal(cs, np.zeros((21, 1)))
    assert not cs.flags.writeable
    assert np.array_equal(node_costates(grid, cs), np.zeros((11, 1)))


def test_backward_exponential():
    # L = theta(T) on thetadot = u - theta: the costate is p(t) = e^{t - T},
    # and the sensitivities sum to dtheta(T)/du for a constant u, 1 - e^{-1}
    grid = make_time_grid(1.0, 100)
    traj = integrate_forward(lambda s, y: -y, np.array([1.0]), grid)
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
    grid = make_time_grid(T, 200)
    traj = integrate_forward(uncontrolled_rate(obj), theta0, grid)
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
        traj = integrate_forward(lambda s, y: -y, np.array([1.0]),
                                 make_time_grid(1.0, n))
        errors.append(abs(traj.terminal_state[0] - np.exp(-1.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0


def test_determinism():
    grid = make_time_grid(1.0, 64)
    rate = lambda s, y: np.sin(y) - 0.3 * y
    a = integrate_forward(rate, np.array([0.9, -0.4]), grid)
    b = integrate_forward(rate, np.array([0.9, -0.4]), grid)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.stages, b.stages)


def test_divergence_detected():
    grid = make_time_grid(1.0, 10)
    with pytest.raises(DivergenceError) as err:
        integrate_forward(lambda s, y: y * y, np.array([50.0]), grid)
    assert err.value.t <= 1.0
    assert err.value.what == "state"


def test_backward_divergence_detected():
    # a Hessian of 1e300 overflows the costate in the first backward step
    grid = make_time_grid(1.0, 10)
    traj = integrate_forward(lambda s, y: -y, np.array([1.0]), grid)
    with pytest.raises(DivergenceError) as err:
        integrate_backward(lambda theta, v: 1e300 * v, traj, np.array([1.0]),
                           0.0)
    assert err.value.what == "costate"
    assert 0 <= err.value.step < grid.steps
    assert err.value.t == grid.nodes[err.value.step]


def test_stage_indices_visited():
    # stage 2j is node j, stage 2j + 1 the midpoint of interval j; the stored
    # stage states are the ones the forward step evaluated, and the backward
    # step differentiates at them in reverse, ending at the node state
    grid = make_time_grid(1.0, 3)
    seen, states = [], []

    def rate(s, y):
        seen.append(s)
        states.append(y.copy())
        return np.sin(y) - 0.3 * y

    traj = integrate_forward(rate, np.array([0.9]), grid)
    assert seen == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    for j in range(grid.steps):
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
