import contextlib
import hashlib
import math

import numpy as np
import pytest

from gradsteer import (Dataset, DivergenceError, LossScale, ModelKind,
                       Objective, SingularityError, TimeGrid,
                       integrate_backward, integrate_forward)
from gradsteer import integrate
from gradsteer.core import node_costates, trapezoid_weights
from gradsteer.integrate import (HESSIAN_BLOCK, integrate_lanes,
                                 rk4_array_steps, squared_norms)
from gradsteer.models import (Hessian, gradient_function, hessian_function,
                              lane_gradient_function)

from conftest import float_hvp, linear_objective, zero_stages


def decay(y):
    # the gradient of J(y) = |y|^2 / 2, so the uncontrolled flow is y' = -y
    return y


@contextlib.contextmanager
def generic_bodies():
    """Sweeps of two parameters run the generic bodies, `rk4_array_steps`
    on (2,) arrays and `_walk`, in place of the pair bodies: the reference
    for them. `grad` still takes p floats."""
    def array_steps(grad, stage_u, y, h):
        return integrate.rk4_array_steps(lambda v: grad(v.tolist()),
                                         map(np.array, stage_u), np.array(y), h)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrate, "rk4_pair_steps", array_steps)
        patch.setattr(integrate, "_walk_pair", integrate._walk)
        yield


def constant_hessian(apply):
    """A Hessian hook that is the same at every point: `entries` gives None
    for each, and `apply(H, v)` ignores H."""
    return Hessian(lambda points: [None] * len(points), apply)


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
    cs = integrate_backward(constant_hessian(lambda hess, v: [0.0]), traj,
                            np.zeros(1), 1.0)
    assert np.array_equal(cs, np.zeros((21, 1)))
    assert not cs.flags.writeable
    assert np.array_equal(node_costates(grid, cs), np.zeros((11, 1)))


def test_backward_exponential():
    # L = theta(T) on thetadot = u - theta: the costate is p(t) = e^{t - T},
    # and the sensitivities sum to dtheta(T)/du for a constant u, 1 - e^{-1}
    grid = TimeGrid(1.0, 100)
    traj = integrate_forward(decay, zero_stages(grid), np.array([1.0]), grid)
    cs = integrate_backward(constant_hessian(lambda hess, v: v), traj,
                            np.array([1.0]), 0.0)
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
    def expm(a):
        """exp of the symmetric matrix a, from its eigendecomposition."""
        eig, vec = np.linalg.eigh(a)
        return vec @ np.diag(np.exp(eig)) @ vec.T

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
    cs = integrate_backward(hessian_function(obj), traj, np.zeros(2), alpha)
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


@pytest.mark.parametrize("rows", [11, 41])
@pytest.mark.parametrize("p", [1, 2])
def test_forward_refuses_stage_controls_of_another_count(p, rows):
    # a 10-step grid has 21 stages; a short sequence would leave nodes
    # unwritten and a long one run past the last
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError,
                       match=f"^{rows} stage controls for the 21 stages of 10 "
                             f"steps$"):
        integrate_forward(decay, np.zeros((rows, p)), np.ones(p), grid)


def test_backward_divergence_detected():
    # a Hessian of 1e300 overflows the costate in the first backward step
    grid = TimeGrid(1.0, 10)
    traj = integrate_forward(decay, zero_stages(grid), np.array([1.0]), grid)
    with pytest.raises(DivergenceError) as err:
        integrate_backward(
            constant_hessian(lambda hess, v: [1e300 * a for a in v]), traj,
            np.array([1.0]), 0.0)
    assert err.value.what == "costate"
    assert 0 <= err.value.step < grid.steps
    assert err.value.t == grid.nodes[err.value.step]


def test_backward_divergence_in_a_later_block():
    # one infinite Hessian, at step j's y4, in the third block of steps the
    # sweep computes: the blocks before it stay finite, and the error names
    # step j and its time
    grid = TimeGrid(1.0, 2 * HESSIAN_BLOCK + 40)
    traj = integrate_forward(decay, zero_stages(grid), np.array([1.0]), grid)
    j = 17
    bad = traj.stages[j, 2, 0]
    hessian = Hessian(
        lambda points: [math.inf if x == bad else 1.0 for x in points[:, 0]],
        lambda hess, v: [hess * a for a in v])
    with pytest.raises(DivergenceError) as err:
        integrate_backward(hessian, traj, np.array([1.0]), 0.0)
    assert err.value.what == "costate"
    assert err.value.step == j
    assert err.value.t == grid.nodes[j]


def test_stage_indices_visited():
    # stage 2j is node j, stage 2j + 1 the midpoint of interval j. With a
    # zero gradient and stage s's control equal to s, each step's states
    # give its slopes: node j feeds k1, the midpoint k2 and k3, node j + 1
    # k4. The stored stage states are the ones the forward step evaluated,
    # and the backward step applies the Hessians at them in reverse, ending
    # at the node state, over more than one block of steps
    grid = TimeGrid(1.0, HESSIAN_BLOCK + 2)
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
    # each point's "Hessian" is the point itself, recorded where it is used
    used = []

    def apply(hess, v):
        used.append(hess)
        return [0.0]

    integrate_backward(Hessian(list, apply), traj, np.zeros(1), 1.0)
    expected = [row for j in range(grid.steps - 1, -1, -1)
                for row in (*traj.stages[j][::-1], traj.states[j])]
    assert np.array_equal(np.array(used), np.array(expected))


@pytest.mark.parametrize("p", [1, 2])
def test_hessians_are_fetched_one_block_at_a_time(p):
    # the walk fetches the Hessians of HESSIAN_BLOCK steps, last block
    # first, and each block only once it has applied every Hessian of the
    # block after it, so it holds one block's Hessians at a time
    grid = TimeGrid(1.0, 2 * HESSIAN_BLOCK + 37)
    traj = integrate_forward(decay, zero_stages(grid, p), np.ones(p), grid)
    calls = []
    applied = 0

    def entries(points):
        calls.append((len(points), applied))
        return [None] * len(points)

    def apply(hess, v):
        nonlocal applied
        applied += 1
        return v

    integrate_backward(Hessian(entries, apply), traj, np.ones(p), 1.0)
    block = 4 * HESSIAN_BLOCK
    assert calls == [(block, 0), (block, block), (4 * 37, 2 * block)]
    assert applied == 4 * grid.steps


def test_divergence_detected_with_two_parameters():
    # either coordinate blowing up stops the pair body's sweep at the step
    # and time where the generic body stops
    grid = TimeGrid(1.0, 10)
    blow_up = lambda y: [-a * a for a in y]
    for theta0 in ([5.0, 0.1], [0.1, 5.0]):
        with pytest.raises(DivergenceError) as err:
            integrate_forward(blow_up, zero_stages(grid, 2), np.array(theta0),
                              grid)
        with generic_bodies(), pytest.raises(DivergenceError) as want:
            integrate_forward(blow_up, zero_stages(grid, 2), np.array(theta0),
                              grid)
        assert err.value.what == want.value.what == "state"
        assert err.value.step == want.value.step > 1
        assert err.value.t == want.value.t == grid.nodes[err.value.step]


@pytest.mark.parametrize("coordinate", [0, 1])
def test_backward_divergence_in_a_later_block_with_two_parameters(
        coordinate):
    # test_backward_divergence_in_a_later_block for the pair walk: the
    # infinite Hessian reaches one coordinate of the costate, and the error
    # names step j and its time, as the generic walk's does
    grid = TimeGrid(1.0, 2 * HESSIAN_BLOCK + 40)
    traj = integrate_forward(decay, zero_stages(grid, 2),
                             np.array([1.0, -2.0]), grid)
    j = 17
    bad = traj.stages[j, 2, 0]
    hessian = Hessian(
        lambda points: [math.inf if x == bad else 1.0 for x in points[:, 0]],
        lambda hess, v: [hess * a if k == coordinate else a
                         for k, a in enumerate(v)])
    with pytest.raises(DivergenceError) as err:
        integrate_backward(hessian, traj, np.array([1.0, 1.0]), 0.0)
    with generic_bodies(), pytest.raises(DivergenceError) as want:
        integrate_backward(hessian, traj, np.array([1.0, 1.0]), 0.0)
    for e in (err, want):
        assert (e.value.what, e.value.step, e.value.t) == (
            "costate", j, grid.nodes[j])


def test_stage_indices_visited_with_two_parameters():
    # test_stage_indices_visited for the pair bodies, with stage s's control
    # (s, -s/2): the stored stage states are the ones the forward step
    # evaluated, and the backward walk applies the Hessians at them in
    # reverse, to the generic walk's vectors, over more than one block
    grid = TimeGrid(1.0, HESSIAN_BLOCK + 2)
    h = grid.dt
    states = []

    def grad(y):
        states.append(list(y))
        return [0.0, 0.0]

    stage_u = np.arange(2.0 * grid.steps + 1)[:, None] * [1.0, -0.5]
    traj = integrate_forward(grad, stage_u, np.array([0.9, 0.4]), grid)
    for j in range(grid.steps):
        y, y_next = traj.states[j], traj.states[j + 1]
        y2, y3, y4 = traj.stages[j]
        k1, k2, k3 = (y2 - y) / (h / 2), (y3 - y) / (h / 2), (y4 - y) / h
        k4 = 6.0 * (y_next - y) / h - k1 - 2.0 * (k2 + k3)
        for k, s in zip((k1, k2, k3, k4), (2 * j, 2 * j + 1, 2 * j + 1,
                                           2 * j + 2)):
            assert k.tolist() == pytest.approx([s, -0.5 * s])
        assert np.array_equal(states[4 * j], traj.states[j])
        assert np.array_equal(np.array(states[4 * j + 1:4 * j + 4]),
                              traj.stages[j])

    # each point's "Hessian" is the point itself, recorded where it is used
    def walk():
        used = []

        def apply(hess, v):
            used.append((hess.tolist(), list(v)))
            return [hess[0] * v[0] - hess[1] * v[1], hess[1] * v[0]]

        sens = integrate_backward(Hessian(list, apply), traj,
                                  np.array([1.0, -1.0]), 1.0)
        return used, sens

    used, sens = walk()
    with generic_bodies():
        want, want_sens = walk()
    assert used == want
    assert sens.tobytes() == want_sens.tobytes()
    expected = [row for j in range(grid.steps - 1, -1, -1)
                for row in (*traj.stages[j][::-1], traj.states[j])]
    assert np.array_equal(np.array([hess for hess, _ in used]),
                          np.array(expected))


def per_point_backward(hvp, traj, p_T, forcing):
    """The backward sweep that the block sweep replaced: one hvp(theta, v)
    call at each stage point, kept as its reference."""
    grid = traj.grid
    n, h = grid.steps, grid.dt
    half, sixth = 0.5 * h, h / 6.0
    running = (forcing * trapezoid_weights(grid))[:, None] * traj.states
    lam = (p_T + running[n]).tolist()
    sens = np.empty((2 * n + 1, len(lam)))
    after = [0.0] * len(lam)
    for j in range(n - 1, -1, -1):
        y2, y3, y4 = traj.stages[j].tolist()
        g4 = [sixth * a for a in lam]
        hg4 = hvp(y4, g4)
        g3 = [2.0 * g - h * a for g, a in zip(g4, hg4)]
        hg3 = hvp(y3, g3)
        g2 = [2.0 * g - half * a for g, a in zip(g4, hg3)]
        hg2 = hvp(y2, g2)
        g1 = [g - half * a for g, a in zip(g4, hg2)]
        hg1 = hvp(traj.states[j].tolist(), g1)
        sens[2 * j + 2] = [a + g for a, g in zip(after, g4)]
        sens[2 * j + 1] = [a + b for a, b in zip(g2, g3)]
        after = g1
        lam = [a - b1 - b2 - b3 - b4 + r for a, b1, b2, b3, b4, r
               in zip(lam, hg1, hg2, hg3, hg4, running[j].tolist())]
        if not all(map(math.isfinite, lam)):
            raise DivergenceError(grid.nodes[j], j, "costate")
    sens[0] = after
    return sens


class TestBlockSweep:
    # integrate_backward fetches the Hessians of HESSIAN_BLOCK steps at once;
    # its sensitivities must be the per-point sweep's, bit for bit, for a
    # sweep shorter than one block, exactly one, and not a whole number

    @pytest.mark.parametrize("steps", [HESSIAN_BLOCK - 51, HESSIAN_BLOCK,
                                       2 * HESSIAN_BLOCK + 37])
    @pytest.mark.parametrize("model,p", [(ModelKind.MICHAELIS_MENTEN, 2),
                                         (ModelKind.LINEAR, 1),
                                         (ModelKind.LINEAR, 3),
                                         (ModelKind.LINEAR, 2)])
    def test_matches_the_per_point_sweep_bitwise(self, model, p, steps):
        obj, theta0, stage_u, grid = TestLaneSweep.lane_problem(
            model, p, steps, k=1, steps=steps)
        traj = integrate_forward(gradient_function(obj), stage_u[:, :, 0],
                                 theta0[:, 0], grid)
        p_T = np.random.default_rng(steps).normal(size=p)
        # the follower's column (forcing alpha, zero terminal costate) and
        # the leader's (forcing 1, a terminal costate)
        for p_T, forcing in ((np.zeros(p), 0.35), (p_T, 1.0)):
            got = integrate_backward(hessian_function(obj), traj, p_T, forcing)
            want = per_point_backward(float_hvp(obj), traj, p_T, forcing)
            assert got.tobytes() == want.tobytes()


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
             (ModelKind.LINEAR, 3), (ModelKind.LINEAR, 2)]

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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_lanes_never_run_the_pair_body(self, monkeypatch, p):
        # the lanes step their (p, K) arrays in the array body, for every p
        def pair_body(*args):
            raise AssertionError("the pair body ran on lanes")

        monkeypatch.setattr(integrate, "rk4_pair_steps", pair_body)
        grid = TimeGrid(1.0, 10)
        sq, theta_T = integrate_lanes(decay, np.zeros((21, p, 3)),
                                      np.ones((p, 3)), grid)
        assert sq.shape == (3, 11) and theta_T.shape == (3, p)

    @pytest.mark.parametrize("rows", [0, 11, 12, 22, 41])
    def test_a_stream_of_another_length_is_refused(self, rows):
        # short by an odd or an even count, long by one or more: the stream
        # is counted as it is read, and the message names its length
        grid = TimeGrid(1.0, 10)
        stream = (u for u in np.zeros((rows, 2, 3)))
        with pytest.raises(ValueError,
                           match=f"^{rows} stage controls for the 21 stages "
                                 f"of 10 steps$"):
            integrate_lanes(decay, stream, np.ones((2, 3)), grid)

    @pytest.mark.parametrize("coordinate", [0, 1])
    def test_diverging_pair_lane_stops_the_sweep_where_its_own_would(
            self, coordinate):
        # on two parameters, lane 1 blows up in one coordinate, and the
        # sweep stops at its float sweep's step
        grid = TimeGrid(1.0, 10)
        blow_up = lambda y: [-a * a for a in y]
        theta0 = np.full((2, 3), 0.1)
        theta0[coordinate, 1] = 5.0
        with pytest.raises(DivergenceError) as lane_err:
            integrate_lanes(blow_up, np.zeros((21, 2, 3)), theta0, grid)
        with pytest.raises(DivergenceError) as float_err:
            integrate_forward(blow_up, zero_stages(grid, 2), theta0[:, 1],
                              grid)
        assert lane_err.value.what == float_err.value.what == "state"
        assert lane_err.value.step == float_err.value.step > 1
        assert lane_err.value.t == float_err.value.t


class TestPairSweep:
    # integrate_forward and integrate_backward run the pair bodies on two
    # parameters; their floats must be the generic bodies', bit for bit

    def test_two_parameters_take_the_pair_bodies(self, monkeypatch):
        def generic(*args):
            raise AssertionError("a generic body ran on two parameters")

        monkeypatch.setattr(integrate, "rk4_array_steps", generic)
        monkeypatch.setattr(integrate, "_walk", generic)
        grid = TimeGrid(1.0, 10)
        traj = integrate_forward(decay, zero_stages(grid, 2),
                                 np.array([1.0, 2.0]), grid)
        integrate_backward(constant_hessian(lambda hess, v: v), traj,
                           np.ones(2), 1.0)

    @staticmethod
    def nonlinear_grad(y):
        # not a model's gradient, and its values are numpy scalars
        return np.sin(y[0]) * y[1], np.tanh(y[1]) - 0.5 * y[0]

    @pytest.mark.parametrize("model", [ModelKind.MICHAELIS_MENTEN,
                                       ModelKind.LINEAR, None])
    def test_forward_matches_the_generic_step_bitwise(self, model):
        # random stage controls over more than one HESSIAN_BLOCK of steps
        steps = HESSIAN_BLOCK + 37
        obj, theta0, stage_u, grid = TestLaneSweep.lane_problem(
            model or ModelKind.MICHAELIS_MENTEN, 2, steps, k=1, steps=steps)
        grad = self.nonlinear_grad if model is None else gradient_function(obj)
        assert np.abs(stage_u).min() > 0.0
        got = integrate_forward(grad, stage_u[:, :, 0], theta0[:, 0], grid)
        with generic_bodies():
            want = integrate_forward(grad, stage_u[:, :, 0], theta0[:, 0],
                                     grid)
        for a, b in ((got.states, want.states), (got.stages, want.stages),
                     (got.state_sq, want.state_sq)):
            assert a.tobytes() == b.tobytes()


class TestArraySweep:
    # integrate_forward steps any p but 2 in rk4_array_steps, on a (p,) array

    @pytest.mark.parametrize("p", [1, 3])
    def test_other_parameter_counts_take_the_array_body(self, monkeypatch, p):
        # never the pair body, and grad still gets a list of p Python
        # floats, the float kernels' fast path
        def pair_body(*args):
            raise AssertionError("the pair body ran on p != 2")

        bodies, points = [], []

        def array_body(*args):
            bodies.append(args)
            return rk4_array_steps(*args)

        def grad(y):
            points.append(y)
            return decay(y)

        monkeypatch.setattr(integrate, "rk4_pair_steps", pair_body)
        monkeypatch.setattr(integrate, "rk4_array_steps", array_body)
        grid = TimeGrid(1.0, 10)
        integrate_forward(grad, zero_stages(grid, p), np.ones(p), grid)
        assert len(bodies) == 1
        assert len(points) == 4 * grid.steps
        for y in points:
            assert type(y) is list and len(y) == p
            assert all(type(a) is float for a in y)

    # sha256 of states, stages and state_sq of a linear sweep over random
    # stage controls, recorded from the list-of-floats step that the array
    # body replaced; the lanes' bitwise test compares the array body with
    # itself at these p, so these digests are its independent reference
    SWEEP_SHA256 = {
        1: ("355bcd46fccf7d2701ad738c33cdef16df7abb84ce3cf61731cd624d60fecc10",
            "cf64912a6916ee6a8025bc6988c206cec2433a9e6d768c2bee129f24d721a0e3",
            "03aa3ce8020ad61dc9bc9b8ec8017f962d389ce7e92dec4d41145e81b12f0ba6"),
        3: ("eca48abde6c2470e16be4d4c990e035f02c21fe9e2defc9acb96b0bf06bfee4c",
            "c17614666ea7e6e7258ca7fc86e0bb53c87f0c712b646144aa2472e7f4e22341",
            "0fdba4139591b7cfe073972a786c590e860aa19c0858f7b7b2f7cf3176281f1e"),
    }

    @pytest.mark.parametrize("p", [1, 3])
    def test_linear_sweep_keeps_its_pinned_bits(self, p):
        steps = HESSIAN_BLOCK + 37
        obj, theta0, stage_u, grid = TestLaneSweep.lane_problem(
            ModelKind.LINEAR, p, steps, k=1, steps=steps)
        traj = integrate_forward(gradient_function(obj), stage_u[:, :, 0],
                                 theta0[:, 0], grid)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (
            traj.states, traj.stages, traj.state_sq)) == self.SWEEP_SHA256[p]
