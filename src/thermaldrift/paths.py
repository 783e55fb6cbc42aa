"""Reference path geometry: circles and planned transition polylines.

A path maps arc length s to a pose and supports closed-form (circle) or
local (polyline) projection of an inertial position back to (s, e, tangent).
The lateral error e is positive to the left of the tangent direction.
The figure-8 course, two circles joined by a polyline, is
:class:`~thermaldrift.figure8.Figure8Plan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["CirclePath", "PolylinePath", "wrap_angle"]


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


@dataclass(frozen=True)
class PolylinePath:
    """Piecewise-linear path through planned waypoints."""

    points: np.ndarray  # (M, 2)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("polyline needs at least two 2-D points")
        object.__setattr__(self, "points", pts)
        seg = np.diff(pts, axis=0)
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(lengths <= 0.0):
            raise ValueError("polyline has a zero-length segment")
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        object.__setattr__(self, "_seg", seg)
        object.__setattr__(self, "_len", lengths)
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_tangent", np.arctan2(seg[:, 1], seg[:, 0]))

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    def pose(self, s: float) -> tuple[float, float, float]:
        s_cl = float(np.clip(s, 0.0, self.length))
        i = int(np.clip(np.searchsorted(self._cum, s_cl) - 1, 0, len(self._len) - 1))
        t = (s_cl - self._cum[i]) / self._len[i]
        x, y = self.points[i] + t * self._seg[i]
        return float(x), float(y), float(self._tangent[i])

    def project(self, X: float, Y: float, s_hint: float) -> tuple[float, float, float]:
        p = np.array([X, Y])
        rel = p - self.points[:-1]
        t = np.clip((rel * self._seg).sum(axis=1) / self._len ** 2, 0.0, 1.0)
        feet = self.points[:-1] + t[:, None] * self._seg
        d2 = ((p - feet) ** 2).sum(axis=1)
        i = int(np.argmin(d2))
        s = float(self._cum[i] + t[i] * self._len[i])
        tang = float(self._tangent[i])
        dx, dy = p - feet[i]
        e = float(-math.sin(tang) * dx + math.cos(tang) * dy)
        return s, e, tang
