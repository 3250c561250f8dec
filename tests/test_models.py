import numpy as np
import pytest

from gradsteer import (Dataset, LossScale, ModelKind, Objective,
                       SingularityError, objective_gradient, objective_value,
                       validation_phi, validation_phi_grad)
from gradsteer.models import _predict_batch, hvp_function

from conftest import TABLE_V, TABLE_W, THETA_REPORTED, linear_objective


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
        assert np.allclose(objective_gradient(obj, theta), 0.0, atol=1e-15)

    def test_hand_derived_single_sample(self, mm_model):
        obj = Objective(mm_model, Dataset(np.array([[1.0]]), np.array([0.0])))
        assert np.allclose(objective_gradient(obj, [1.0, 1.0]), [0.25, -0.125],
                           rtol=1e-14)

    def test_finite_difference_all_models(self):
        rng = np.random.default_rng(42)
        cases = []
        for _ in range(5):
            w = rng.uniform(0.05, 1.0, size=6)
            v = rng.uniform(0.2, 4.0, size=6)
            cases.append(Objective(ModelKind.MICHAELIS_MENTEN,
                                   Dataset(w[:, None], v)))
            cases.append(Objective(ModelKind.EXPONENTIAL,
                                   Dataset(w[:, None] - 0.5, v)))
            cases.append(linear_objective(rng.normal(size=(6, 3)),
                                          rng.normal(size=6)))
        for obj in cases:
            p = 2 if obj.model is not ModelKind.LINEAR else 3
            theta = rng.uniform(0.3, 2.0, size=p)
            step = 1e-6 * (1.0 + np.linalg.norm(theta))
            fd = finite_diff_gradient(lambda th: objective_value(obj, th),
                                      theta, step)
            grad = objective_gradient(obj, theta)
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
            grad = objective_gradient(obj, theta)
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
        h = 1e-5
        dense = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            dense[:, j] = (objective_gradient(obj, theta + e)
                           - objective_gradient(obj, theta - e)) / (2 * h)
        v = np.array([1.0, 0.0])
        assert np.allclose(hvp_function(obj)(theta, v), dense @ v, rtol=1e-4)

    def test_exponential_against_dense_fd_hessian(self):
        obj = Objective(ModelKind.EXPONENTIAL,
                        Dataset(np.array([[0.5], [1.5]]), np.array([1.0, 2.0])),
                        LossScale.ONE)
        theta = np.array([0.8, 0.3])
        h = 1e-5
        dense = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            dense[:, j] = (objective_gradient(obj, theta + e)
                           - objective_gradient(obj, theta - e)) / (2 * h)
        for v in np.eye(2):
            assert np.allclose(hvp_function(obj)(theta, v), dense @ v,
                               rtol=1e-7)

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
        assert np.allclose(validation_phi_grad(mm_model, theta, ds), 0.0)

    def test_gradient_finite_difference(self, mm_model, mm_validation):
        theta = np.array([3.5, 0.05])
        step = 1e-6 * (1.0 + np.linalg.norm(theta))
        fd = finite_diff_gradient(
            lambda th: validation_phi(mm_model, th, mm_validation), theta, step)
        grad = validation_phi_grad(mm_model, theta, mm_validation)
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
