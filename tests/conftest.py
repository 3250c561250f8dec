from pathlib import Path

import numpy as np
import pytest

from gradsteer import (ControlPartition, Dataset, GridControl, LossScale,
                       ModelKind, Objective, SplitSpec,
                       TimeGrid, zero_grid_control)
from gradsteer import adjoint
from gradsteer.adjoint import FollowerProblem
from gradsteer.models import SINGULARITY_GUARD, SingularityError

REPO = Path(__file__).resolve().parent.parent

# seven enzyme initial-rate experiments (sucrose concentration, velocity)
TABLE_W = [0.3330, 0.1670, 0.0833, 0.0416, 0.0208, 0.0104, 0.0052]
TABLE_V = [3.6360, 3.6360, 3.2360, 2.6660, 2.1140, 1.4660, 0.8661]
THETA_REPORTED = np.array([3.9059, 0.0178])


@pytest.fixture(scope="session")
def table_data() -> Dataset:
    return Dataset(np.array(TABLE_W)[:, None], np.array(TABLE_V))


@pytest.fixture(scope="session")
def split() -> SplitSpec:
    # experiments {1,3,5,7} train, {2,4,6} validation (1-based), 0-based here
    return SplitSpec((0, 2, 4, 6), (1, 3, 5))


@pytest.fixture(scope="session")
def mm_model() -> ModelKind:
    return ModelKind.MICHAELIS_MENTEN


@pytest.fixture(scope="session")
def mm_train_half(table_data, split, mm_model) -> Objective:
    return Objective(mm_model, split.train(table_data), LossScale.HALF)


@pytest.fixture(scope="session")
def mm_train_one(table_data, split, mm_model) -> Objective:
    return Objective(mm_model, split.train(table_data), LossScale.ONE)


@pytest.fixture(scope="session")
def mm_validation(table_data, split) -> Dataset:
    return split.validation(table_data)


@pytest.fixture(scope="session")
def partition_10() -> ControlPartition:
    return ControlPartition(np.array([1.0, 0.0]))


def linear_objective(inputs, outputs, scale=LossScale.HALF) -> Objective:
    """Linear model, one parameter per input column."""
    return Objective(ModelKind.LINEAR,
                     Dataset(inputs, np.asarray(outputs, dtype=float)), scale)


def float_hvp(obj: Objective):
    """theta, v -> (Hessian J)(theta) @ v, one point at a time on Python
    floats: the per-point kernel that `models.hessian_function` replaced,
    kept as its reference. Sums run left to right from 0.0."""
    scale = 2.0 * obj.loss_scale.factor / len(obj.dataset.outputs)
    y = obj.dataset.outputs.tolist()
    if obj.model is ModelKind.LINEAR:
        rows = (scale * (obj.dataset.inputs.T @ obj.dataset.inputs)).tolist()

        def hvp(theta, v):
            out = []
            for row in rows:
                total = 0.0
                for a, b in zip(row, v):
                    total = total + a * b
                out.append(total)
            return tuple(out)

        return hvp

    w = obj.dataset.inputs[:, 0].tolist()

    def hvp(theta, v):
        t0, t1 = theta[0], theta[1]
        h00 = h01 = h11 = 0.0
        for wi, yi in zip(w, y):
            di = t1 + wi
            if -SINGULARITY_GUARD <= di <= SINGULARITY_GUARD:
                nearest = min(w, key=lambda x: abs(t1 + x))
                raise SingularityError(theta, float(nearest))
            q = wi / di
            qd = q / di
            r = t0 * q - yi
            t = t0 * q + r
            h00 += q * q
            h01 += qd * t
            h11 += (qd / di) * (t + r)
        h01, h11 = -h01, t0 * h11
        return (scale * (h00 * v[0] + h01 * v[1]),
                scale * (h01 * v[0] + h11 * v[1]))

    return hvp


def zero_stages(grid, dimension: int = 1):
    """Stage values of the zero control, for integrate_forward."""
    return np.zeros((2 * grid.steps + 1, dimension))


def clamped_follower_problem():
    """Scalar follower problem whose control starts pinned at -u_max with the
    costate pushing it further out, so every trial step is clamped away."""
    obj = linear_objective(np.zeros((1, 1)), [0.0])
    grid = TimeGrid(1.0, 50)
    partition = ControlPartition(np.array([0.0]))
    prob = FollowerProblem(obj, 1.0, 0.01, partition,
                           zero_grid_control(grid, 1, u_max=0.01), grid,
                           np.array([1.0]))
    return prob, GridControl(grid, np.full((51, 1), -0.01), u_max=0.01)


def sweep_gradient(prob, u):
    """The control gradient of prob's agent at u along one forward and one
    backward sweep: dH2/du2 for a FollowerProblem, dH1/du1 for a
    LeaderProblem."""
    if isinstance(prob, FollowerProblem):
        traj = adjoint.follower_forward(prob, u)
        return adjoint.follower_gradient_arrays(
            prob, u, adjoint.follower_backward(prob, traj))
    traj = adjoint.leader_forward(prob, u)
    return adjoint.leader_gradient_arrays(prob, u,
                                          adjoint.leader_backward(prob, traj))
