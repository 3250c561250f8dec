"""Shared domain types: datasets, time grids, control signals, partitions,
trajectories, solver configuration and run reports.

A ControlSignal samples itself at nodes and RK4 stages, turns a backward
sweep's stage sensitivities into its own-coordinate gradient, steps, and
solves its cost's metric: no caller branches on grid against basis controls.

Everything here is immutable after construction (arrays are marked
read-only), so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]


def _frozen_array(values, shape_hint: str) -> Array:
    """A read-only float copy of `values`; the caller's array stays writeable."""
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{shape_hint} contains non-finite entries")
    arr.flags.writeable = False
    return arr


class InvalidSetting(ValueError):
    """A solver, grid or split setting outside its allowed range; `name` is
    the field and `rule` the condition it breaks."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} {rule}")
        self.name = name
        self.rule = rule


@dataclass(frozen=True)
class Dataset:
    """Labelled samples: `inputs` is (m, d), `outputs` is (m,)."""

    inputs: Array
    outputs: Array

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        object.__setattr__(self, "inputs", _frozen_array(inputs, "inputs"))
        object.__setattr__(self, "outputs", _frozen_array(self.outputs, "outputs"))
        if self.outputs.ndim != 1:
            raise ValueError("outputs must be one-dimensional")
        if len(self.inputs) != len(self.outputs):
            raise ValueError("inputs and outputs must have equal length")
        if len(self.outputs) < 1:
            raise ValueError("dataset needs at least one sample")

    def __len__(self) -> int:
        return len(self.outputs)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.inputs[idx], self.outputs[idx])


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/validation index sets into a source dataset (0-based),
    each holding a sample at most once."""

    train_indices: Tuple[int, ...]
    validation_indices: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "train_indices", tuple(int(i) for i in self.train_indices))
        object.__setattr__(self, "validation_indices",
                           tuple(int(i) for i in self.validation_indices))
        for key in ("train_indices", "validation_indices"):
            seen = set()
            for i in getattr(self, key):
                if i in seen:
                    raise InvalidSetting(key, f"sample {i + 1} is repeated")
                seen.add(i)
        if set(self.train_indices) & set(self.validation_indices):
            raise ValueError("train and validation index sets overlap")
        if not self.train_indices or not self.validation_indices:
            raise ValueError("both splits must be non-empty")

    def check_bounds(self, dataset: Dataset) -> None:
        """Raise InvalidSetting(key, rule) for the first index outside the
        dataset; `key` is the index set's field name and `rule` names the
        1-based sample, as a config file writes it."""
        m = len(dataset)
        for key in ("train_indices", "validation_indices"):
            for i in getattr(self, key):
                if not 0 <= i < m:
                    raise InvalidSetting(key, f"sample {i + 1} is outside "
                                              f"the {m} rows")

    def train(self, dataset: Dataset) -> Dataset:
        self.check_bounds(dataset)
        return dataset.subset(self.train_indices)

    def validation(self, dataset: Dataset) -> Dataset:
        self.check_bounds(dataset)
        return dataset.subset(self.validation_indices)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with `steps` intervals (steps + 1 nodes)."""

    horizon: float
    steps: int
    nodes: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise InvalidSetting("horizon", "must be positive and finite")
        if self.steps < 2:
            raise InvalidSetting("steps", "must be at least 2")
        nodes = np.linspace(0.0, self.horizon, self.steps + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


def trapezoid_weights(grid: TimeGrid) -> Array:
    w = np.full(grid.steps + 1, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def stage_samples(nodes: Array) -> Array:
    """Rows of `nodes` interleaved with their interval midpoints (the mean of
    the two): 2n - 1 rows for n nodes, in the stage order of `integrate`."""
    out = np.empty((2 * len(nodes) - 1,) + nodes.shape[1:])
    out[0::2] = nodes
    out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return out


def node_costates(grid: TimeGrid, sens: Array) -> Array:
    """Node costates p_j of a backward sweep's stage sensitivities `sens`:
    stage_samples' transpose over the trapezoid weights, so that p's
    trapezoid pairing with a node-sampled direction is the derivative."""
    nodes = sens[0::2].copy()
    nodes[:-1] += 0.5 * sens[1::2]
    nodes[1:] += 0.5 * sens[1::2]
    return nodes / trapezoid_weights(grid)[:, None]


def make_time_grid(horizon: float, steps: int) -> TimeGrid:
    """Uniform time grid covering [0, horizon] with the given step count."""
    return TimeGrid(horizon=float(horizon), steps=int(steps))


@dataclass(frozen=True)
class ControlGradient:
    """Gradient in a control's shape: node values (`pointwise`), and the
    control's own coordinates (`own`: node values, or basis coefficients)."""

    pointwise: Array
    own: Array

    @property
    def norm_inf(self) -> float:
        return float(np.abs(self.pointwise).max())

    @property
    def update_norm(self) -> float:
        """The stopping tests' norm, in own coordinates: a basis control's
        pointwise residual cannot drop below its representation error."""
        return float(np.abs(self.own).max())


class ControlSignal:
    """A control on its own TimeGrid `grid`, bounded by `u_max`. GridControl
    and BasisControl supply `_samples` and `_own_gradient`, `update` (a step
    in own coordinates) and `solve_metric` (of the control cost)."""

    def node_values(self) -> Array:
        """Control at the grid's nodes, (steps + 1, p), clamped to +-u_max."""
        return np.clip(self._samples(False), -self.u_max, self.u_max)

    def stage_values(self) -> Array:
        """Control at the RK4 stages, (2*steps + 1, p), clamped to +-u_max."""
        return np.clip(self._samples(True), -self.u_max, self.u_max)

    def gradient(self, sens: Array, mask: Array, cost_grad) -> ControlGradient:
        """Gradient on the `mask` coordinates of a functional whose running
        control cost has node gradient `cost_grad` and whose state part has
        stage sensitivities `sens`."""
        pointwise = (cost_grad + node_costates(self.grid, sens)) * mask
        return ControlGradient(pointwise, self._own_gradient(
            pointwise, sens * mask, cost_grad * mask))


@dataclass(frozen=True)
class GridControl(ControlSignal):
    """Control stored as node values on a TimeGrid; piecewise-linear in time."""

    grid: TimeGrid
    values: Array
    u_max: float = 10.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.grid.steps + 1:
            raise ValueError("need one value vector per grid node")
        object.__setattr__(self, "values", _frozen_array(values, "control values"))
        if self.u_max <= 0:
            raise ValueError("u_max must be positive")
        if np.abs(self.values).max() > self.u_max + 1e-12:
            raise ValueError("control values exceed the amplitude bound")

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def _samples(self, stages: bool) -> Array:
        return stage_samples(self.values) if stages else self.values

    def _own_gradient(self, pointwise: Array, sens: Array, cost_grad) -> Array:
        return pointwise  # node values are this control's own coordinates

    def update(self, direction: Array, step: float) -> "GridControl":
        """u - step * direction, clamped to the amplitude bound."""
        values = np.clip(self.values - step * direction, -self.u_max, self.u_max)
        return GridControl(self.grid, values, self.u_max)

    def solve_metric(self, own: Array) -> Array:
        """The control cost's metric is the identity on node values."""
        return own


@dataclass(frozen=True)
class BasisControl(ControlSignal):
    """Control as a finite basis expansion sum_k a_k * phi_k(t).

    phi_k are Legendre polynomials of degree k-1 rescaled to [0, T]; they are
    bounded by 1 in magnitude, so coefficients relate directly to amplitude.
    """

    grid: TimeGrid
    coefficients: Array
    u_max: float = 10.0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        object.__setattr__(self, "coefficients", _frozen_array(coeffs, "coefficients"))
        if self.u_max <= 0:
            raise ValueError("u_max must be positive")

    @property
    def dimension(self) -> int:
        return self.coefficients.shape[1]

    @property
    def n_functions(self) -> int:
        return self.coefficients.shape[0]

    def _samples(self, stages: bool) -> Array:
        return sampled_basis_matrix(self.grid, self.n_functions, stages) \
            @ self.coefficients

    def _own_gradient(self, pointwise: Array, sens: Array, cost_grad) -> Array:
        """Transposed (trapezoid-weighted) node and stage sampling."""
        cost = trapezoid_weights(self.grid)[:, None] * cost_grad
        return (sampled_basis_matrix(self.grid, self.n_functions, False).T @ cost
                + sampled_basis_matrix(self.grid, self.n_functions, True).T @ sens)

    def update(self, direction: Array, step: float) -> "BasisControl":
        """Coefficients a - step * direction; sampling applies the bound."""
        return BasisControl(self.grid, self.coefficients - step * direction,
                            self.u_max)

    def solve_metric(self, own: Array) -> Array:
        """G^-1 own; the control cost is beta/2 * a^T G a in the Gram matrix
        G of the node-sampled basis."""
        return np.linalg.solve(basis_gram_matrix(self.grid, self.n_functions),
                               own)


def zero_grid_control(grid: TimeGrid, dimension: int, u_max: float = 10.0) -> GridControl:
    return GridControl(grid, np.zeros((grid.steps + 1, dimension)), u_max)


@lru_cache(maxsize=64)
def sampled_basis_matrix(grid: TimeGrid, n_functions: int, stages: bool) -> Array:
    """BasisControl's functions phi_1..phi_K (columns) at the grid's nodes
    (rows), or at its stage times when `stages` is set; read-only and
    cached, because basis-control sweeps sample it on every call."""
    times = stage_samples(grid.nodes) if stages else grid.nodes
    out = np.polynomial.legendre.legvander(2.0 * times / grid.horizon - 1.0,
                                           n_functions - 1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def basis_gram_matrix(grid: TimeGrid, n_functions: int) -> Array:
    """G = B^T W B for the node-sampled basis B and trapezoid weights W, so
    that an unclipped basis control's running cost is beta/2 * a^T G a;
    read-only and cached like sampled_basis_matrix."""
    basis = sampled_basis_matrix(grid, n_functions, False)
    out = basis.T @ (trapezoid_weights(grid)[:, None] * basis)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ControlPartition:
    """A 0/1 leader mask over the control coordinates; the follower owns
    every other coordinate, so its mask is the complement."""

    leader_mask: Array
    follower_mask: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lm = np.array(self.leader_mask, dtype=float)  # a copy: frozen below
        if lm.ndim != 1:
            raise ValueError("mask must be 1-d")
        if not np.all(np.isin(lm, (0.0, 1.0))):
            raise ValueError("mask must be binary")
        fm = 1.0 - lm
        lm.flags.writeable = False
        fm.flags.writeable = False
        object.__setattr__(self, "leader_mask", lm)
        object.__setattr__(self, "follower_mask", fm)

    @property
    def dimension(self) -> int:
        return self.leader_mask.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """States on a time grid, as integrate_forward produces them: `states`
    at the nodes, and `stages[j]` the states of RK4 stages 2-4 of step j,
    which the backward sweep differentiates at."""

    grid: TimeGrid
    states: Array
    stages: Array

    def __post_init__(self):
        object.__setattr__(self, "states", _frozen_array(self.states, "states"))
        object.__setattr__(self, "stages", _frozen_array(self.stages, "stages"))
        if self.states.shape[0] != self.grid.steps + 1:
            raise ValueError("state count must equal node count")
        if self.stages.shape != (self.grid.steps, 3) + self.states.shape[1:]:
            raise ValueError("need three stage states per step")

    @property
    def terminal_state(self) -> Array:
        return self.states[-1]


class TerminalMode(Enum):
    PENALTY = "penalty"
    PAPER_FIXED = "paper_fixed"


# (fields, condition, rule) for every SolverConfig check
_SOLVER_RULES = (
    (("alpha", "beta", "eps_tol", "inner_tol", "u_max"), lambda v: v > 0,
     "must be positive"),
    (("gamma1",), lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    (("z", "mu"), lambda v: v >= 0, "must be non-negative"),
    (("max_outer", "max_inner"), lambda v: v >= 1, "must be at least 1"),
)


@dataclass(frozen=True)
class SolverConfig:
    """Weights, step sizes, tolerances and caps for the nested solver.

    gamma1 is the leader's first trial step along its gradient; the
    follower's first trial is always its full successive-approximation (MSA)
    step. Both are backtracked.
    """

    alpha: float = 0.01
    beta: float = 0.1
    gamma1: float = 0.5
    eps_tol: float = 1e-5
    inner_tol: float = 1e-6
    z: float = 0.005
    mu: float = 50.0
    max_outer: int = 2000
    max_inner: int = 500
    u_max: float = 10.0
    terminal_mode: TerminalMode = TerminalMode.PENALTY

    def __post_init__(self):
        for names, ok, rule in _SOLVER_RULES:
            for name in names:
                if not ok(getattr(self, name)):
                    raise InvalidSetting(name, rule)


@dataclass(frozen=True)
class HistoryRecord:
    """One outer iteration: cost values, extremum residual norms, and the
    steps the two line searches accepted (gamma2_used is the follower's
    last accepted fraction of its MSA step; 0 means no step)."""

    j1: float
    j2: float
    phi: float
    leader_grad_norm: float
    follower_grad_norm: float
    gamma1_used: float
    gamma2_used: float


@dataclass(frozen=True)
class RunReport:
    trajectory: Trajectory      # the forward sweep of the final (u1, u2)
    J1_value: float
    J2_value: float
    Phi_value: float
    outer_iterations: int
    converged: bool
    history: Tuple[HistoryRecord, ...]
    u1: ControlSignal
    u2: ControlSignal

    @property
    def theta_final(self) -> Array:
        return self.trajectory.terminal_state
