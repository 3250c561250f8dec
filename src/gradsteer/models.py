"""Hypothesis functions, quadratic losses, the training objective and the
validation functional, with analytic gradients and closed-form
Hessian-vector products.

Built-in model kinds:

* ``michaelis_menten``: h(w) = theta0 * w / (theta1 + w), 2 parameters,
  scalar input. Guarded against the pole at theta1 = -w.
* ``linear``: h(x) = <theta, x>, one parameter per input. Constant Hessian, used as an exact
  fixture in adjoint tests and for linear-quadratic oracle problems.
* ``exponential``: h(x) = theta0 * exp(theta1 * x), a smooth nonlinear
  2-parameter fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import Array, Dataset

SINGULARITY_GUARD = 1e-9


class SingularityError(ArithmeticError):
    """Model evaluation hit a (near-)singular denominator."""

    def __init__(self, theta, x):
        self.theta = np.asarray(theta, dtype=float)
        self.x = x
        super().__init__(
            f"singular model denominator at theta={self.theta.tolist()}, input={x}")


class ModelKind(Enum):
    MICHAELIS_MENTEN = "michaelis_menten"
    LINEAR = "linear"
    EXPONENTIAL = "exponential"


class LossScale(Enum):
    HALF = "half"  # 0.5 * (yhat - y)^2
    ONE = "one"    # (yhat - y)^2

    @property
    def factor(self) -> float:
        return 0.5 if self is LossScale.HALF else 1.0


@dataclass(frozen=True)
class Objective:
    """Mean loss of a model over a dataset."""

    model: ModelKind
    dataset: Dataset
    loss_scale: LossScale = LossScale.HALF

    def __post_init__(self):
        if self.model is not ModelKind.LINEAR and self.dataset.inputs.shape[1] != 1:
            raise ValueError(f"{self.model.value} model takes scalar inputs")


def _mm_check(theta: Array, w: Array):
    d = theta[1] + w
    if np.abs(d).min() <= SINGULARITY_GUARD:
        bad = w[np.abs(d).argmin()]
        raise SingularityError(theta, float(bad))
    return d


def _predict_batch(model: ModelKind, theta: Array, inputs: Array) -> Array:
    if model is ModelKind.MICHAELIS_MENTEN:
        w = inputs[:, 0]
        d = _mm_check(theta, w)
        return theta[0] * w / d
    if model is ModelKind.LINEAR:
        return inputs @ theta
    w = inputs[:, 0]
    return theta[0] * np.exp(theta[1] * w)


def gradient_function(obj: Objective) -> Callable[[Array], Array]:
    """Bind the dataset once; returns theta -> grad J(theta).

    The bound closure is the hot path of every integration sweep, so the
    per-model formulas below stay lean (few temporaries, dot products).
    """
    scale = 2.0 * obj.loss_scale.factor
    outputs = obj.dataset.outputs
    m = float(len(outputs))

    if obj.model is ModelKind.MICHAELIS_MENTEN:
        w = obj.dataset.inputs[:, 0]

        def grad(theta: Array) -> Array:
            d = _mm_check(theta, w)
            q = w / d
            r = theta[0] * q - outputs
            return (scale / m) * np.array([r @ q, -theta[0] * (r @ (q / d))])

        return grad

    if obj.model is ModelKind.LINEAR:
        x = obj.dataset.inputs

        def grad(theta: Array) -> Array:
            r = x @ theta - outputs
            return (scale / m) * (r @ x)

        return grad

    w = obj.dataset.inputs[:, 0]

    def grad(theta: Array) -> Array:
        e = np.exp(theta[1] * w)
        r = theta[0] * e - outputs
        return (scale / m) * np.array([r @ e, theta[0] * (r @ (w * e))])

    return grad


def objective_value(obj: Objective, theta) -> float:
    r = (_predict_batch(obj.model, np.asarray(theta, dtype=float),
                        obj.dataset.inputs) - obj.dataset.outputs)
    return obj.loss_scale.factor * (r @ r) / float(len(obj.dataset.outputs))


def objective_gradient(obj: Objective, theta) -> Array:
    return gradient_function(obj)(np.asarray(theta, dtype=float))


def hvp_function(obj: Objective) -> Callable[[Array, Array], Array]:
    """Bind the dataset once; returns theta, v -> (Hessian J)(theta) @ v from
    the closed-form Hessian: 2x2 for the two-parameter models, constant for
    the linear one."""
    scale = 2.0 * obj.loss_scale.factor / len(obj.dataset.outputs)
    outputs = obj.dataset.outputs
    if obj.model is ModelKind.LINEAR:
        hessian = scale * (obj.dataset.inputs.T @ obj.dataset.inputs)
        return lambda theta, v: hessian @ v

    # (H00, H01, H11) / scale = sum_i g_i g_i^T + r_i Hess(prediction_i)
    w = obj.dataset.inputs[:, 0]
    if obj.model is ModelKind.MICHAELIS_MENTEN:
        def entries(theta: Array):
            d = _mm_check(theta, w)
            q = w / d
            qd = q / d
            r = theta[0] * q - outputs
            t = theta[0] * q + r
            return q @ q, -(qd @ t), theta[0] * ((qd / d) @ (t + r))
    else:
        def entries(theta: Array):
            e = np.exp(theta[1] * w)
            we = w * e
            t = theta[0] * e + (theta[0] * e - outputs)
            return e @ e, we @ t, theta[0] * ((w * we) @ t)

    def hvp(theta: Array, v: Array) -> Array:
        h00, h01, h11 = entries(theta)
        return scale * np.array([h00 * v[0] + h01 * v[1],
                                 h01 * v[0] + h11 * v[1]])

    return hvp


def validation_phi(model: ModelKind, theta, validation: Dataset,
                   scale: LossScale = LossScale.HALF) -> float:
    """Mean loss over a validation dataset (the model quality measure)."""
    return objective_value(Objective(model, validation, scale), theta)


def validation_phi_grad(model: ModelKind, theta, validation: Dataset,
                        scale: LossScale = LossScale.HALF) -> Array:
    return objective_gradient(Objective(model, validation, scale), theta)
