"""Hypothesis functions, quadratic losses, the training objective and the
validation functional, with analytic gradients and closed-form Hessians.

The gradient kernels step on Python floats, one point at a time. The Hessian
(`hessian_function`) comes in two parts: `entries` computes the Hessians of
many points in one numpy pass, and `apply` multiplies one of them with a
vector of p floats. Float sums run left to right from 0.0 (`_fold_sum`), so
every kernel gives the same bits on every supported Python.

Built-in model kinds:

* ``michaelis_menten``: h(w) = theta0 * w / (theta1 + w), 2 parameters,
  scalar input. Guarded against the pole at theta1 = -w.
* ``linear``: h(x) = <theta, x>, one parameter per input. Constant Hessian, used as an exact
  fixture in adjoint tests and for linear-quadratic oracle problems.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

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


def _fold_sum(terms):
    """Left-to-right sum of `terms` from 0.0. From Python 3.12 on, `sum()` of
    floats is compensated, while a sum of lane arrays is not; this fold is
    the same on floats and arrays, on every Python."""
    return functools.reduce(operator.add, terms, 0.0)


def _mm_pole(theta, w) -> SingularityError:
    """SingularityError naming the input w nearest the pole theta1 = -w."""
    nearest = min(w, key=lambda wi: abs(theta[1] + wi))
    return SingularityError(theta, float(nearest))


def _predict_batch(model: ModelKind, theta: Array, inputs: Array) -> Array:
    if model is ModelKind.LINEAR:
        return inputs @ theta
    w = inputs[:, 0]
    d = theta[1] + w
    if np.abs(d).min() <= SINGULARITY_GUARD:
        raise _mm_pole(theta, w)
    return theta[0] * w / d


def gradient_function(obj: Objective) -> Callable:
    """Bind the dataset once; returns theta -> grad J(theta), p floats in and
    p floats out. It is the hot path of every sweep, and loops over the
    samples on Python floats: with a few samples and parameters, numpy's
    per-call overhead would cost more than the arithmetic."""
    c = 2.0 * obj.loss_scale.factor / float(len(obj.dataset.outputs))
    y = obj.dataset.outputs.tolist()

    if obj.model is ModelKind.LINEAR:
        x = obj.dataset.inputs.tolist()

        def grad(theta):
            r = [_fold_sum(a * b for a, b in zip(xi, theta, strict=True)) - yi
                 for xi, yi in zip(x, y)]
            return tuple(c * _fold_sum(ri * xi[k] for ri, xi in zip(r, x))
                         for k in range(len(theta)))

        return grad

    w = obj.dataset.inputs[:, 0].tolist()

    def grad(theta):
        t0, t1 = theta[0], theta[1]
        rq = rqd = 0.0
        for wi, yi in zip(w, y):
            di = t1 + wi
            if -SINGULARITY_GUARD <= di <= SINGULARITY_GUARD:
                raise _mm_pole(theta, w)
            q = wi / di
            r = t0 * q - yi
            rq += r * q
            rqd += r * (q / di)
        return c * rq, c * (-t0 * rqd)

    return grad


def lane_gradient_function(obj: Objective) -> Callable:
    """`gradient_function` on lanes: theta is a (p, K) array, one column per
    lane, and so is the gradient; each lane's floats are the float kernel's
    for its theta, bit for bit. The linear float kernel takes the p rows as
    they are and returns p arrays. Michaelis-Menten's sums both terms of its
    m samples, one (2, m, K) buffer, in sample order from 0.0; the first lane
    near the pole raises SingularityError naming its theta. Callers silence
    numpy's overflow and invalid warnings."""
    if obj.model is ModelKind.LINEAR:
        return gradient_function(obj)
    c = 2.0 * obj.loss_scale.factor / float(len(obj.dataset.outputs))
    y = obj.dataset.outputs[:, None]
    w = obj.dataset.inputs[:, :1]

    def grad(theta):
        t0, t1 = theta[0], theta[1]
        d = t1 + w
        # no |d| is within the guard unless min d is (or is NaN)
        if not d.min() > SINGULARITY_GUARD:
            near = (np.abs(d) <= SINGULARITY_GUARD).any(axis=0)
            if near.any():
                raise _mm_pole(theta[:, near.argmax()].tolist(), w[:, 0])
        terms = np.empty((2,) + d.shape)
        q = np.divide(w, d, out=terms[0])
        np.divide(q, d, out=terms[1])
        terms *= t0 * q - y
        # numpy would sum the samples of one lane pairwise, not in order
        s = (np.add.reduce(terms, axis=1, initial=0.0) if len(t0) > 1
             else _fold_sum(terms.transpose(1, 0, 2)))
        s[1] *= -t0
        s *= c
        return s

    return grad


def objective_value(obj: Objective, theta) -> float:
    r = (_predict_batch(obj.model, np.asarray(theta, dtype=float),
                        obj.dataset.inputs) - obj.dataset.outputs)
    return obj.loss_scale.factor * (r @ r) / float(len(obj.dataset.outputs))


class Hessian(NamedTuple):
    """The Hessian of a training objective J. `entries(points)` takes an
    (M, p) array of points and returns the list of their M Hessians,
    computed in one numpy pass, each from its own point alone; `apply(H, v)`
    returns H @ v for one of them and p floats v, as p floats."""

    entries: Callable
    apply: Callable


def hessian_function(obj: Objective) -> Hessian:
    """Bind the dataset once; returns the closed-form Hessian of J. For
    Michaelis-Menten each Hessian is the float triple (h00, h01, h11), each
    entry summed over the samples in sample order, and a point within
    SINGULARITY_GUARD of the pole raises SingularityError naming the first
    such point; for the linear model it is the constant matrix, pre-scaled,
    as rows of floats."""
    scale = 2.0 * obj.loss_scale.factor / len(obj.dataset.outputs)
    if obj.model is ModelKind.LINEAR:
        rows = (scale * (obj.dataset.inputs.T @ obj.dataset.inputs)).tolist()
        return Hessian(
            lambda points: [rows] * len(points),
            lambda hess, v: tuple(_fold_sum(
                a * b for a, b in zip(row, v, strict=True)) for row in hess))

    # (H00, H01, H11) / scale = sum_i g_i g_i^T + r_i Hess(prediction_i)
    w = obj.dataset.inputs[:, 0]
    y = obj.dataset.outputs.tolist()

    @np.errstate(over="ignore", invalid="ignore")
    def entries(points):
        t0, t1 = points[:, 0], points[:, 1]
        d = t1[:, None] + w
        near = (np.abs(d) <= SINGULARITY_GUARD).any(axis=1)
        if near.any():
            raise _mm_pole(points[int(np.flatnonzero(near)[0])].tolist(),
                           w.tolist())
        h00 = h01 = h11 = 0.0
        for wi, yi, di in zip(w, y, d.T):
            q = wi / di
            qd = q / di
            r = t0 * q - yi
            t = t0 * q + r
            h00 += q * q
            h01 += qd * t
            h11 += (qd / di) * (t + r)
        h01, h11 = -h01, t0 * h11
        return list(zip(h00.tolist(), h01.tolist(), h11.tolist()))

    def apply(hess, v):
        h00, h01, h11 = hess
        return (scale * (h00 * v[0] + h01 * v[1]),
                scale * (h01 * v[0] + h11 * v[1]))

    return Hessian(entries, apply)


def hvp_function(obj: Objective) -> Callable:
    """Bind the dataset once; returns theta, v -> (Hessian J)(theta) @ v:
    `hessian_function` at the one point theta, p floats out."""
    hessian = hessian_function(obj)
    return lambda theta, v: hessian.apply(
        hessian.entries(np.array([theta], dtype=float))[0], v)


def validation_phi(model: ModelKind, theta, validation: Dataset,
                   scale: LossScale = LossScale.HALF) -> float:
    """Mean loss over a validation dataset (the model quality measure)."""
    return objective_value(Objective(model, validation, scale), theta)
