"""Reference path geometry: the steady circles.

A circle maps arc length s to a pose and projects an inertial position back
to (s, e, tangent) in closed form, e positive to the left of the tangent.
The transition is its own centerline, and the figure-8 course, two circles
joined by it, is :class:`~thermaldrift.figure8.Figure8Plan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = ["CirclePath", "wrap_angle"]


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class CirclePath:
    """Circular arc with signed radius (positive = counter-clockwise).

    Parametrized so that at s = 0 the path passes through ``start`` with
    tangent angle ``phi0``; the center sits a signed radius to the left.
    """

    radius: float
    start: tuple[float, float] = (0.0, 0.0)
    phi0: float = 0.0

    @cached_property
    def center(self) -> tuple[float, float]:
        # left normal at s=0 is (-sin phi0, cos phi0)
        return (self.start[0] - self.radius * math.sin(self.phi0),
                self.start[1] + self.radius * math.cos(self.phi0))

    def pose(self, s: float) -> tuple[float, float, float]:
        """Return (X, Y, tangent angle) at arc length s."""
        phi = self.phi0 + s / self.radius
        cx, cy = self.center
        return (cx + self.radius * math.sin(phi),
                cy - self.radius * math.cos(phi),
                phi)

    def project(self, X: float, Y: float, s_hint: float) -> tuple[float, float, float]:
        """Closed-form projection; returns (s, e, tangent angle).

        s is unwrapped to the branch nearest ``s_hint`` so multi-lap runs
        keep a monotone arc length.
        """
        cx, cy = self.center
        dx, dy = X - cx, Y - cy
        rho = math.hypot(dx, dy)
        sgn = math.copysign(1.0, self.radius)
        e = sgn * (abs(self.radius) - rho)
        phi = math.atan2(sgn * dx, -sgn * dy)
        s = s_hint + self.radius * wrap_angle(phi - self.phi0 - s_hint / self.radius)
        return s, e, self.phi0 + (s - 0.0) / self.radius
