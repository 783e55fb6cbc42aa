"""Actuator limits shared by the planners and the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ActuatorLimits", "default_limits"]


@dataclass(frozen=True)
class ActuatorLimits:
    delta_min: float   # rad
    delta_max: float   # rad
    ddelta_min: float  # rad/s
    ddelta_max: float  # rad/s
    tau_min: float     # N m
    tau_max: float     # N m
    dtau_min: float    # N m / s
    dtau_max: float    # N m / s

    def __post_init__(self):
        for lo, hi in ((self.delta_min, self.delta_max),
                       (self.ddelta_min, self.ddelta_max),
                       (self.tau_min, self.tau_max),
                       (self.dtau_min, self.dtau_max)):
            if not lo < hi:
                raise ValueError("actuator limit bounds out of order")


def default_limits() -> ActuatorLimits:
    return ActuatorLimits(
        delta_min=-math.radians(43.0), delta_max=math.radians(43.0),
        ddelta_min=-math.radians(90.0), ddelta_max=math.radians(90.0),
        tau_min=-1000.0, tau_max=3500.0,
        dtau_min=-4000.0, dtau_max=2000.0,
    )
