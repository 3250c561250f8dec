import numpy as np
import pytest
from scipy.linalg import expm

from gradsteer import (LossScale, ModelKind, ModelSpec, Objective, Dataset,
                       DivergenceError, integrate_backward, integrate_forward,
                       make_time_grid)
from gradsteer.adjoint import make_costate_rate
from gradsteer.integrate import midpoint_states
from gradsteer.core import Trajectory

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
    cs = integrate_backward(lambda s, p: np.zeros(1), np.zeros(1), grid)
    assert np.array_equal(cs.costates, np.zeros((11, 1)))


def test_backward_exponential():
    # pdot = p integrated from p(T)=1 down to t=0 gives p(0) = e^{-1}
    grid = make_time_grid(1.0, 100)
    cs = integrate_backward(lambda s, p: p, np.array([1.0]), grid)
    assert abs(cs.costates[0, 0] - np.exp(-1.0)) < 1e-8
    assert cs.costates[-1, 0] == 1.0


def test_backward_linear_adjoint_matrix_exponential():
    # For h(x) = <theta, x> with zero targets the state Hessian A is constant,
    # theta(t) = expm(-A t) theta0, and the costate with zero terminal value is
    # p(t) = (alpha/2) A^{-1} (expm(-A t) - expm(A (t - 2T))) theta0.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 2))
    obj = linear_objective(x, np.zeros(5))
    a_mat = x.T @ x / 5.0
    theta0 = np.array([0.8, -0.6])
    alpha = 0.35
    T = 1.0
    grid = make_time_grid(T, 200)
    traj = integrate_forward(uncontrolled_rate(obj), theta0, grid)
    cs = integrate_backward(make_costate_rate(obj, traj, alpha),
                            np.zeros(2), grid)
    a_inv = np.linalg.inv(a_mat)
    for idx in (0, 50, 120, 200):
        t = grid.nodes[idx]
        exact = (alpha / 2.0) * a_inv @ (
            expm(-a_mat * t) - expm(a_mat * (t - 2 * T))) @ theta0
        assert np.abs(cs.costates[idx] - exact).max() < 1e-6


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
    assert np.array_equal(a.derivs, b.derivs)


def test_divergence_detected():
    grid = make_time_grid(1.0, 10)
    with pytest.raises(DivergenceError) as err:
        integrate_forward(lambda s, y: y * y, np.array([50.0]), grid)
    assert err.value.t <= 1.0
    assert err.value.what == "state"


def test_backward_divergence_detected():
    # pdot = -p^2 from p(T) = 50 blows up backward in time
    grid = make_time_grid(1.0, 10)
    with pytest.raises(DivergenceError) as err:
        integrate_backward(lambda s, p: -p * p, np.array([50.0]), grid)
    assert err.value.what == "costate"
    assert 0 <= err.value.step < grid.steps
    assert err.value.t == grid.nodes[err.value.step]


def test_stage_indices_visited():
    # stage 2j is node j, stage 2j + 1 the midpoint of interval j
    grid = make_time_grid(1.0, 3)
    seen = []

    def rate(s, y):
        seen.append(s)
        return np.zeros(1)

    integrate_forward(rate, np.zeros(1), grid)
    assert seen == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    seen.clear()
    integrate_backward(rate, np.zeros(1), grid)
    assert seen == [6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0]


class TestInterpolation:
    def test_node_values_bitwise(self):
        # the costate rate reads the stored state itself at every even stage
        # and the Hermite midpoint at every odd one
        obj = linear_objective(np.array([[1.0, 0.5]]), [0.3])
        grid = make_time_grid(1.0, 8)
        traj = integrate_forward(uncontrolled_rate(obj),
                                 np.array([2.0, -1.0]), grid)
        rate = make_costate_rate(obj, traj, 1.0)
        for j in range(grid.steps + 1):
            assert np.array_equal(rate(2 * j, np.zeros(2)), -traj.states[j])
        for j, mid in enumerate(midpoint_states(traj)):
            assert np.array_equal(rate(2 * j + 1, np.zeros(2)), -mid)

    def test_constant_trajectory(self):
        grid = make_time_grid(1.0, 8)
        traj = integrate_forward(lambda s, y: np.zeros(2),
                                 np.array([3.0, -1.0]), grid)
        assert np.allclose(midpoint_states(traj), [3.0, -1.0])

    def test_midstep_accuracy(self):
        grid = make_time_grid(1.0, 50)
        traj = integrate_forward(lambda s, y: -y, np.array([1.0]), grid)
        mid = midpoint_states(traj)[:, 0]
        assert np.abs(mid - np.exp(-grid.stage_times[1::2])).max() < 1e-7

    def test_requires_derivs(self):
        grid = make_time_grid(1.0, 4)
        with pytest.raises(TypeError):
            Trajectory(grid, np.zeros((5, 1)))
