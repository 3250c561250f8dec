"""Parameter estimation as a leader/follower optimal-control problem over a
controlled training gradient flow.

The follower shapes the trajectory with a regularization cost; the leader
steers the terminal parameters so a validation functional hits a target
accuracy level. Both act through first-order control corrections computed
from costate (adjoint) sweeps.
"""

__version__ = "0.1.0"

from .core import (BasisControl, ControlGradient, ControlPartition, Dataset,
                   GridControl, HistoryRecord, RunReport, SolverConfig,
                   SplitSpec, TimeGrid, zero_grid_control)
from .models import (LossScale, ModelKind, Objective, SingularityError,
                     objective_value, validation_phi)
from .integrate import DivergenceError, integrate_backward, integrate_forward
from .adjoint import FollowerProblem, LeaderProblem, gradient_check
from .follower import FollowerResult, solve_follower
from .leader import LeaderStepResult, leader_step, solve_nested

__all__ = [
    "BasisControl", "ControlGradient", "ControlPartition", "Dataset",
    "DivergenceError", "FollowerProblem", "FollowerResult", "GridControl",
    "HistoryRecord", "LeaderProblem", "LeaderStepResult", "LossScale",
    "ModelKind", "Objective", "RunReport", "SingularityError", "SolverConfig",
    "SplitSpec", "TimeGrid", "gradient_check", "integrate_backward",
    "integrate_forward", "leader_step", "objective_value", "solve_follower",
    "solve_nested", "validation_phi", "zero_grid_control",
]
