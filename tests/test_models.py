import math

import numpy as np
import pytest

from gradsteer import (DivergenceError, Dataset, LossScale, ModelKind,
                       Objective, SingularityError, TimeGrid, integrate_forward,
                       objective_value, validation_phi)
from gradsteer.models import (SINGULARITY_GUARD, _predict_batch,
                              gradient_function, hessian_function,
                              hvp_function)

from conftest import (TABLE_V, TABLE_W, THETA_REPORTED, float_hvp,
                      linear_objective, zero_stages)


def finite_diff_gradient(func, theta, step):
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for j in range(len(theta)):
        e = np.zeros_like(theta)
        e[j] = step
        out[j] = (func(theta + e) - func(theta - e)) / (2 * step)
    return out


class TestPredict:
    def test_reported_parameters(self, mm_model):
        # 3.9059 * 0.3330 / (0.0178 + 0.3330), frozen from an independent evaluation
        assert _predict_batch(mm_model, THETA_REPORTED, np.array([[0.3330]]))[0] == \
            pytest.approx(3.7077100912200684, rel=1e-12)

    def test_zero_input(self, mm_model):
        assert _predict_batch(mm_model, np.array([5.0, 0.3]),
                              np.array([[0.0]]))[0] == 0.0

    def test_singularity(self, mm_model):
        with pytest.raises(SingularityError) as err:
            _predict_batch(mm_model, np.array([1.0, 0.0]), np.array([[0.0]]))
        assert err.value.x == 0.0
        assert np.allclose(err.value.theta, [1.0, 0.0])

    def test_near_singular_guard(self, mm_model):
        with pytest.raises(SingularityError):
            _predict_batch(mm_model, np.array([1.0, -0.0052]), np.array([[0.0052]]))


class TestLoss:
    # one sample of the identity model: the loss of prediction theta vs target
    def test_zero_residual(self):
        assert objective_value(linear_objective([[1.0]], [3.0]), [3.0]) == 0.0

    def test_half(self):
        obj = linear_objective([[1.0]], [0.0], LossScale.HALF)
        assert objective_value(obj, [2.0]) == 2.0

    def test_one(self):
        obj = linear_objective([[1.0]], [0.0], LossScale.ONE)
        assert objective_value(obj, [2.0]) == 4.0


class TestObjectiveValue:
    def test_perfect_fit(self, mm_model):
        theta = np.array([2.0, 0.5])
        w = np.array([0.1, 0.4, 0.9])
        v = theta[0] * w / (theta[1] + w)
        obj = Objective(mm_model, Dataset(w[:, None], v))
        assert objective_value(obj, theta) == 0.0

    def test_single_sample(self, mm_model):
        obj = Objective(mm_model, Dataset(np.array([[1.0]]), np.array([0.0])),
                        LossScale.HALF)
        assert objective_value(obj, [1.0, 1.0]) == pytest.approx(0.125)

    @pytest.mark.parametrize("scale", [LossScale.HALF, LossScale.ONE])
    def test_table_train_split_brute_force(self, scale, mm_model, table_data,
                                           split):
        obj = Objective(mm_model, split.train(table_data), scale)
        got = objective_value(obj, THETA_REPORTED)
        # independent recomputation with plain floats
        total = 0.0
        for i in (0, 2, 4, 6):
            pred = 3.9059 * TABLE_W[i] / (0.0178 + TABLE_W[i])
            total += (pred - TABLE_V[i]) ** 2
        expected = scale.factor * total / 4.0
        assert got == pytest.approx(expected, rel=1e-14)

    def test_positivity(self, mm_train_half):
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = np.array([rng.uniform(0.5, 6.0), rng.uniform(0.05, 2.0)])
            assert objective_value(mm_train_half, theta) >= 0.0


class TestObjectiveGradient:
    def test_perfect_fit_zero(self, mm_model):
        theta = np.array([2.0, 0.5])
        w = np.array([0.1, 0.4, 0.9])
        v = theta[0] * w / (theta[1] + w)
        obj = Objective(mm_model, Dataset(w[:, None], v))
        assert np.allclose(gradient_function(obj)(theta), 0.0, atol=1e-15)

    def test_hand_derived_single_sample(self, mm_model):
        obj = Objective(mm_model, Dataset(np.array([[1.0]]), np.array([0.0])))
        assert np.allclose(gradient_function(obj)(np.array([1.0, 1.0])),
                           [0.25, -0.125], rtol=1e-14)

    def test_finite_difference_all_models(self):
        rng = np.random.default_rng(42)
        cases = []
        for _ in range(5):
            w = rng.uniform(0.05, 1.0, size=6)
            v = rng.uniform(0.2, 4.0, size=6)
            cases.append(Objective(ModelKind.MICHAELIS_MENTEN,
                                   Dataset(w[:, None], v)))
            cases.append(linear_objective(rng.normal(size=(6, 3)),
                                          rng.normal(size=6)))
        for obj in cases:
            p = 2 if obj.model is not ModelKind.LINEAR else 3
            theta = rng.uniform(0.3, 2.0, size=p)
            step = 1e-6 * (1.0 + np.linalg.norm(theta))
            fd = finite_diff_gradient(lambda th: objective_value(obj, th),
                                      theta, step)
            grad = gradient_function(obj)(theta)
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_gradient_consistency_many_draws(self, mm_model):
        # 100 random (theta, dataset) draws, relative error under 1e-5
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.integers(2, 8)
            w = rng.uniform(0.05, 1.5, size=m)
            v = rng.uniform(0.3, 4.0, size=m)
            obj = Objective(mm_model, Dataset(w[:, None], v),
                            rng.choice([LossScale.HALF, LossScale.ONE]))
            theta = np.array([rng.uniform(0.5, 5.0), rng.uniform(0.05, 1.0)])
            step = 1e-6 * (1.0 + np.linalg.norm(theta))
            fd = finite_diff_gradient(lambda th: objective_value(obj, th),
                                      theta, step)
            grad = gradient_function(obj)(theta)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / denom < 1e-5


class TestHvp:
    def test_zero_vector(self, mm_train_half):
        out = hvp_function(mm_train_half)(np.array([1.0, 1.0]), np.zeros(2))
        assert np.array_equal(out, [0.0, 0.0])

    def test_linear_model_exact(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 3))
        y = rng.normal(size=7)
        obj = linear_objective(x, y)
        hessian = x.T @ x / 7.0  # half scale
        theta = rng.normal(size=3)
        hvp = hvp_function(obj)
        for _ in range(4):
            v = rng.normal(size=3)
            assert np.allclose(hvp(theta, v), hessian @ v,
                               rtol=1e-8, atol=1e-10)

    def test_mm_against_dense_fd_hessian(self, mm_model):
        obj = Objective(mm_model, Dataset(np.array([[1.0]]), np.array([0.0])))
        theta = np.array([1.0, 1.0])
        grad = gradient_function(obj)
        h = 1e-5
        dense = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            dense[:, j] = (np.asarray(grad(theta + e))
                           - np.asarray(grad(theta - e))) / (2 * h)
        v = np.array([1.0, 0.0])
        assert np.allclose(hvp_function(obj)(theta, v), dense @ v, rtol=1e-4)

    def test_symmetry(self, mm_train_half):
        rng = np.random.default_rng(9)
        theta = np.array([2.5, 0.3])
        hvp = hvp_function(mm_train_half)
        for _ in range(10):
            a = rng.normal(size=2)
            b = rng.normal(size=2)
            lhs = hvp(theta, a) @ b
            rhs = hvp(theta, b) @ a
            assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-10)


class TestValidationPhi:
    def test_perfect_fit(self, mm_model):
        theta = np.array([3.0, 0.2])
        w = np.array([0.1, 0.5])
        v = theta[0] * w / (theta[1] + w)
        ds = Dataset(w[:, None], v)
        assert validation_phi(mm_model, theta, ds) == 0.0
        assert np.allclose(gradient_function(Objective(mm_model, ds))(theta),
                           0.0)

    def test_gradient_finite_difference(self, mm_model, mm_validation):
        theta = np.array([3.5, 0.05])
        step = 1e-6 * (1.0 + np.linalg.norm(theta))
        fd = finite_diff_gradient(
            lambda th: validation_phi(mm_model, th, mm_validation), theta, step)
        grad = gradient_function(Objective(mm_model, mm_validation))(theta)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-10)

    def test_reported_parameters_near_target(self, mm_model, mm_validation):
        # frozen independent evaluations at the reported optimum
        phi_one = validation_phi(mm_model, THETA_REPORTED, mm_validation,
                                 LossScale.ONE)
        phi_half = validation_phi(mm_model, THETA_REPORTED, mm_validation,
                                  LossScale.HALF)
        assert phi_one == pytest.approx(0.005592551367147092, rel=1e-12)
        assert phi_half == pytest.approx(0.002796275683573546, rel=1e-12)
        assert abs(phi_one - 0.005) < 1e-3  # near the accuracy level z

    def test_uses_only_validation_samples(self, mm_model, table_data, split):
        val = split.validation(table_data)
        theta = np.array([2.0, 0.1])
        before = validation_phi(mm_model, theta, val)
        # perturb the training rows of a copy of the source data
        perturbed = np.array(table_data.inputs)
        perturbed[list(split.train_indices), 0] += 0.123
        table2 = Dataset(perturbed, table_data.outputs)
        after = validation_phi(mm_model, theta, split.validation(table2))
        assert before == after


# The vectorised numpy gradient and Hessian-vector product that the float
# kernels replaced, kept as their oracle.

@np.errstate(over="ignore", invalid="ignore")
def numpy_gradient(obj, theta):
    theta = np.asarray(theta, dtype=float)
    scale = 2.0 * obj.loss_scale.factor
    outputs = obj.dataset.outputs
    m = float(len(outputs))
    if obj.model is ModelKind.LINEAR:
        x = obj.dataset.inputs
        r = x @ theta - outputs
        return (scale / m) * (r @ x)
    assert obj.model is ModelKind.MICHAELIS_MENTEN  # a new kind needs its own
    w = obj.dataset.inputs[:, 0]
    d = theta[1] + w
    q = w / d
    r = theta[0] * q - outputs
    return (scale / m) * np.array([r @ q, -theta[0] * (r @ (q / d))])


@np.errstate(over="ignore", invalid="ignore")
def numpy_hvp(obj, theta, v):
    theta = np.asarray(theta, dtype=float)
    scale = 2.0 * obj.loss_scale.factor / len(obj.dataset.outputs)
    outputs = obj.dataset.outputs
    if obj.model is ModelKind.LINEAR:
        return scale * (obj.dataset.inputs.T @ obj.dataset.inputs) @ v
    assert obj.model is ModelKind.MICHAELIS_MENTEN  # a new kind needs its own
    w = obj.dataset.inputs[:, 0]
    d = theta[1] + w
    q = w / d
    qd = q / d
    r = theta[0] * q - outputs
    t = theta[0] * q + r
    h00, h01, h11 = q @ q, -(qd @ t), theta[0] * ((qd / d) @ (t + r))
    return scale * np.array([h00 * v[0] + h01 * v[1], h01 * v[0] + h11 * v[1]])


class TestFloatKernels:
    # every model kind, so that a new one cannot skip the oracle
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_match_numpy_oracle(self, model):
        # the float kernels sum in another order than numpy's dot products,
        # so they agree to rounding, not bitwise
        rng = np.random.default_rng(7)
        p = 3 if model is ModelKind.LINEAR else 2
        for _ in range(50):
            m = int(rng.integers(1, 8))
            inputs = (rng.normal(size=(m, p)) if model is ModelKind.LINEAR
                      else rng.uniform(0.01, 1.5, size=(m, 1)))
            obj = Objective(model, Dataset(inputs, rng.uniform(0.2, 4.0, size=m)),
                            rng.choice([LossScale.HALF, LossScale.ONE]))
            theta = rng.uniform(0.05, 3.0, size=p)
            v = rng.normal(size=p)
            for got, want in (
                    (gradient_function(obj)(theta.tolist()),
                     numpy_gradient(obj, theta)),
                    (hvp_function(obj)(theta.tolist(), v.tolist()),
                     numpy_hvp(obj, theta, v))):
                assert len(got) == p
                assert all(type(g) is float for g in got)
                assert np.abs(np.asarray(got) - want).max() \
                    <= 1e-13 * np.abs(want).max()

    def test_linear_overflow_is_infinite(self):
        # x * theta = 1e200 * 1e200 overflows a float to inf, as numpy's
        # product does, and the sweep stops at its first step
        obj = linear_objective([[1e200]], [1.0])
        theta = [1e200]
        grad = gradient_function(obj)(theta)
        assert np.all(np.isposinf(grad))
        assert np.array_equal(grad, numpy_gradient(obj, theta))
        grid = TimeGrid(1.0, 10)
        with pytest.raises(DivergenceError) as err:
            integrate_forward(gradient_function(obj), zero_stages(grid, 1),
                              theta, grid)
        assert (err.value.what, err.value.step) == ("state", 1)

    def test_pole_guard_names_the_input_predict_batch_names(self, mm_model):
        # theta1 is within the guard of -w at two inputs; every path names
        # the nearer one, 0.0052, though the kernels meet the other first
        w = np.array([0.3, 0.0052 + 5e-10, 0.0052, 0.1])
        obj = Objective(mm_model, Dataset(w[:, None], np.ones(4)))
        theta = [2.0, -0.0052]
        named = []
        for call in (lambda: _predict_batch(mm_model, np.array(theta), w[:, None]),
                     lambda: gradient_function(obj)(theta),
                     lambda: hvp_function(obj)(theta, [1.0, 0.0])):
            with pytest.raises(SingularityError) as err:
                call()
            named.append(err.value.x)
        assert named == [0.0052] * 3

    def test_float_sums_run_left_to_right(self):
        # sum() of floats is compensated from Python 3.12 on, and gives 1.0
        # on these terms; the lane kernels add arrays left to right from 0.0,
        # which gives 0.0, and the float kernels must give the same
        terms = [1e16, 1.0, -1e16]
        left_to_right = ((0.0 + terms[0]) + terms[1]) + terms[2]
        assert left_to_right != math.fsum(terms)
        obj = linear_objective([[1.0, 1.0, 1.0]], [0.0])  # J = r^2 / 2
        assert gradient_function(obj)(terms) == (left_to_right,) * 3
        assert hvp_function(obj)([0.0] * 3, terms) == (left_to_right,) * 3


class TestHessianHook:
    @staticmethod
    def problem(model, seed):
        rng = np.random.default_rng(seed)
        p = 3 if model is ModelKind.LINEAR else 2
        m = int(rng.integers(1, 8))
        inputs = (rng.normal(size=(m, p)) if model is ModelKind.LINEAR
                  else rng.uniform(0.01, 1.5, size=(m, 1)))
        obj = Objective(model, Dataset(inputs, rng.uniform(0.2, 4.0, size=m)),
                        rng.choice([LossScale.HALF, LossScale.ONE]))
        return obj, rng.uniform(0.05, 3.0, size=(40, p)), rng.normal(size=p)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_entries_are_the_per_point_kernels_bitwise(self, model):
        for seed in range(10):
            obj, points, v = self.problem(model, seed)
            hessian = hessian_function(obj)
            entries = hessian.entries(points)
            assert len(entries) == len(points)
            for hess, theta in zip(entries, points):
                got = hessian.apply(hess, v.tolist())
                want = float_hvp(obj)(theta.tolist(), v.tolist())
                assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_hvp_function_is_the_one_point_hook(self, model):
        # bench/worker.py times hvp_function(obj)(theta, v) on arrays
        obj, points, v = self.problem(model, 3)
        hessian = hessian_function(obj)
        for theta in points[:5]:
            want = hessian.apply(hessian.entries(theta[None, :])[0], v)
            for cast in (tuple, list, np.array):
                got = hvp_function(obj)(cast(theta.tolist()),
                                        cast(v.tolist()))
                assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_pole_names_the_float_kernels_theta_and_input(self, mm_model):
        # the second of three points lies within the guard of theta1 = -w
        w = np.array([0.3, 0.0052, 0.1])
        obj = Objective(mm_model, Dataset(w[:, None], np.ones(3)))
        near = [2.0, -0.0052 + 0.5 * SINGULARITY_GUARD]
        points = np.array([[2.0, 0.1], near, [1.0, -0.3]])
        with pytest.raises(SingularityError) as hook_err:
            hessian_function(obj).entries(points)
        with pytest.raises(SingularityError) as float_err:
            float_hvp(obj)(near, [1.0, 0.0])
        assert hook_err.value.theta.tolist() == near
        assert float_err.value.theta.tolist() == near
        assert hook_err.value.x == float_err.value.x == 0.0052
