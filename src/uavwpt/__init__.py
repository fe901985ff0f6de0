"""Hover/flight time planning for a wireless-powered UAV collector.

A multi-antenna UAV flies over rows of energy-harvesting sensors,
charging the next group in flight and over the previous hover while the
current group uploads.  The package provides closed-form solvers for
two mission objectives (maximize summed throughput under a time budget,
or minimize total mission time under per-group data demands), a
hover-and-fly single-receive-antenna baseline, and a Monte-Carlo
harness with a verification oracle suite.
"""

from .channel import ChannelParams, GroupCoefficients
from .config import ScenarioConfig, load_config
from .errors import (AccuracyError, BracketingError, ConfigError,
                     InfeasiblePlanError, NumericDomainError, PlanError,
                     UavWptError, UnsupportedScaleError)
from .experiments import (SweepSpec, TrialResult, generate_trial, run_sweep,
                          run_trial, trial_rng, write_sweep_csv)
from .geometry import (GroupPlan, check_feasibility, load_field, plan_groups,
                       singleton_plan)
from .stm import (StmDiagnostics, StmProblem, TimeAllocation,
                  delivered_information, solve_stm, sum_throughput)
from .ttm import TtmProblem, solve_ttm
from .verification import run_verification, write_verification_csv

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BracketingError", "ChannelParams", "ConfigError",
    "GroupCoefficients", "GroupPlan", "InfeasiblePlanError",
    "NumericDomainError", "PlanError", "ScenarioConfig", "StmDiagnostics",
    "StmProblem", "SweepSpec", "TimeAllocation", "TrialResult", "TtmProblem",
    "UavWptError", "UnsupportedScaleError", "check_feasibility",
    "delivered_information", "generate_trial", "load_config", "load_field",
    "plan_groups", "run_sweep", "run_trial", "run_verification",
    "singleton_plan", "solve_stm", "solve_ttm", "trial_rng", "sum_throughput",
    "write_sweep_csv", "write_verification_csv", "__version__",
]
