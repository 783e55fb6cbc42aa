"""Exception hierarchy shared across the package."""


class ThermalDriftError(Exception):
    """Base class for all package errors."""


class ModelDomainError(ThermalDriftError):
    """A model operation was evaluated outside its physical domain."""


class VelocityFloorError(ModelDomainError):
    """Longitudinal speed below the floor where slip angles are defined."""


class DegenerateLoadError(ModelDomainError):
    """An axle vertical load dropped to zero or below (tip regime)."""


class PathSingularityError(ModelDomainError):
    """Curvilinear projection singular (1 - kappa*e too close to zero)."""


class SolverError(ThermalDriftError):
    """Base class for numerical solver failures."""


class ConvergenceError(SolverError):
    """Iteration limit hit before reaching the requested tolerance."""


class BoundsError(SolverError):
    """A converged solution violates an actuator bound."""


class InfeasibleError(SolverError):
    """The requested operating condition cannot be met by the tires."""


class ScheduleError(ThermalDriftError):
    """Gain-schedule construction failed."""


class SimulationError(ThermalDriftError):
    """Closed-loop simulation terminated abnormally."""


class ConfigError(ThermalDriftError):
    """A parameter or scenario configuration file is invalid."""
