"""Thermally-aware drifting: tire thermodynamics, equilibria, planning, LQR."""

from .control import (
    GainSchedule,
    build_schedule,
    linearize,
    lqr_gain,
)
from .equilibrium import (
    DriftEquilibrium,
    QuasiSteadyTrajectory,
    find_equilibrium,
    quasi_steady_sweep,
)
from .errors import ThermalDriftError
from .figure8 import Figure8Plan, plan_figure8
from .limits import ActuatorLimits, default_limits
from .model import (
    ControlInput,
    VehicleState,
    friction_coefficient,
    vehicle_derivatives,
)
from .params import (
    ParamSet,
    ThermalParams,
    TireParams,
    VehicleParams,
    default_params,
    load_params,
    save_params,
)
from .sim import PoleTrace, Scenario, SimResult, compare, pole_trace, run
from .trajopt import (
    DynamicTrajectory,
    PlannerConfig,
    TransitionProblem,
    initial_guess,
    load_planner_config,
    solve_transition,
)

__version__ = "0.1.0"

__all__ = [
    "ActuatorLimits", "ControlInput", "DriftEquilibrium", "DynamicTrajectory",
    "Figure8Plan", "GainSchedule", "ParamSet", "PlannerConfig",
    "PoleTrace", "QuasiSteadyTrajectory", "Scenario", "SimResult",
    "ThermalDriftError", "ThermalParams", "TireParams",
    "TransitionProblem", "VehicleParams", "VehicleState", "build_schedule",
    "compare", "default_limits", "default_params", "find_equilibrium",
    "friction_coefficient", "initial_guess", "linearize", "load_params",
    "load_planner_config", "lqr_gain", "plan_figure8", "pole_trace",
    "quasi_steady_sweep", "run", "save_params", "solve_transition",
    "vehicle_derivatives",
]
