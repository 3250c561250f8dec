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
                   SplitSpec, TerminalMode, TimeGrid, make_time_grid,
                   zero_grid_control)
from .models import (LossScale, ModelKind, Objective, SingularityError,
                     objective_gradient, objective_value, validation_phi,
                     validation_phi_grad)
from .integrate import DivergenceError, integrate_backward, integrate_forward
from .adjoint import (FollowerProblem, LeaderProblem,
                      control_gradient_follower, control_gradient_leader,
                      gradient_check)
from .follower import FollowerResult, solve_follower
from .leader import (LeaderStepResult, ResidualStats, leader_step,
                     residual_stats, solve_nested)

__all__ = [
    "BasisControl", "ControlGradient", "ControlPartition", "Dataset",
    "DivergenceError", "FollowerProblem", "FollowerResult", "GridControl",
    "HistoryRecord", "LeaderProblem", "LeaderStepResult", "LossScale",
    "ModelKind", "Objective", "ResidualStats",
    "RunReport", "SingularityError", "SolverConfig", "SplitSpec",
    "TerminalMode", "TimeGrid", "control_gradient_follower",
    "control_gradient_leader", "gradient_check", "integrate_backward",
    "integrate_forward", "leader_step", "make_time_grid",
    "objective_gradient", "objective_value", "residual_stats",
    "solve_follower", "solve_nested", "validation_phi",
    "validation_phi_grad", "zero_grid_control",
]
