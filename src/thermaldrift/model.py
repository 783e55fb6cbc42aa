"""Continuous-time vehicle, tire, and tread-temperature model.

Single track model with rear wheel-speed dynamics, first-order longitudinal
weight transfer, a Fiala brush front tire, a combined-slip brush rear tire
whose friction coefficient is an affine function of the tread temperature,
and a lumped-parameter tread energy balance.  All functions here are pure;
state and parameters are immutable values.

:func:`scalar_rates` is the one implementation of the tire physics and of
the tread energy balance: a float-only function for the body and pose
rates, the tread temperature rate, the tread heating power and the rear
saturation flag that the simulator, the equilibrium solve and sweep, the
linearization and the transition's scalar re-integration call.
:func:`vehicle_derivatives` is its adapter for :class:`VehicleState`
values; it adds the path rates and returns :class:`StateRates`.
:func:`friction_coefficient` states the friction map on its own.

Sign conventions: x forward, y left, yaw positive counter-clockwise.  A
positive slip quantity produces a tire force through the brush law such that
the force always opposes the sliding velocity of the tread over the road
(this is what makes the frictional heating term non-negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    DegenerateLoadError,
    ModelDomainError,
    PathSingularityError,
    VelocityFloorError,
)
from .params import ParamSet, ThermalParams

__all__ = [
    "VELOCITY_FLOOR",
    "VehicleState",
    "ControlInput",
    "StateRates",
    "friction_coefficient",
    "scalar_rates",
    "vehicle_derivatives",
]

#: below this longitudinal speed the slip-angle arctangents are meaningless
VELOCITY_FLOOR = 0.5  # m/s


@dataclass(frozen=True)
class VehicleState:
    """Full dynamic state.

    The planar velocity may be read either as body components (Vx, Vy) or as
    speed/sideslip (V, beta); the dynamics are evaluated in (Vx, Vy).
    """

    Vx: float          # longitudinal velocity, m/s
    Vy: float          # lateral velocity, m/s
    r: float           # yaw rate, rad/s
    omega: float       # rear wheel speed, rad/s
    dFz: float         # longitudinal weight transfer, N
    theta_r: float     # rear tread temperature, degC
    e: float = 0.0     # lateral path error, m
    s: float = 0.0     # arc length along the path, m
    dpsi: float = 0.0  # heading error to the path tangent, rad
    psi: float = 0.0   # inertial heading, rad
    X: float = 0.0     # inertial position, m
    Y: float = 0.0     # inertial position, m

    @property
    def V(self) -> float:
        """Speed of the center of mass, m/s."""
        return math.hypot(self.Vx, self.Vy)

    @property
    def beta(self) -> float:
        """Sideslip angle, rad."""
        return math.atan2(self.Vy, self.Vx)

    @classmethod
    def from_speed_beta(cls, V: float, beta: float, **kwargs) -> "VehicleState":
        return cls(Vx=V * math.cos(beta), Vy=V * math.sin(beta), **kwargs)

    def replace(self, **kwargs) -> "VehicleState":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ControlInput:
    delta: float      # road wheel steering angle, rad
    Fxf: float = 0.0  # front braking force, N (<= 0 when braking)
    tau: float = 0.0  # rear axle torque, N m

    def replace(self, **kwargs) -> "ControlInput":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class StateRates:
    """Time derivative of :class:`VehicleState` (same field layout)."""

    Vx: float
    Vy: float
    r: float
    omega: float
    dFz: float
    theta_r: float
    e: float = 0.0
    s: float = 0.0
    dpsi: float = 0.0
    psi: float = 0.0
    X: float = 0.0
    Y: float = 0.0


def friction_coefficient(thp: ThermalParams, theta_r: float) -> float:
    """Rear friction coefficient from the temperature map (affine)."""
    mu_r = thp.mu_r1 * theta_r + thp.mu_r0
    if mu_r <= 0.0:
        raise ModelDomainError(
            f"friction map gives mu_r={mu_r:.4f} at theta={theta_r:.1f} degC"
        )
    return mu_r


def scalar_rates(params: ParamSet, Vx: float, Vy: float, r: float, psi: float,
                 omega: float, dFz: float, theta_r: float,
                 delta: float, Fxf: float, tau: float) -> tuple:
    """Body and pose rates, the tread heating power and the rear saturation
    flag, ``(dVx, dVy, dr, domega, ddFz, dtheta, dX, dY, Q, saturated)``.

    Plain floats in and out; it builds no dataclass.  Each domain check runs
    once, in this order: the axle loads, the velocity floor, the front
    cornering stiffness, kappa_r > -1 and mu_r > 0.  The rear tire's slip
    velocities carry the sign of the wheel sliding over the road, so the
    brush forces oppose them and the slip heating is non-negative.
    ``saturated`` is True exactly when the rear brush law takes its
    full-sliding branch, not f <= 3*mu_r*F_zr (so False when f == 0).
    """
    vp, tp, thp = params.vehicle, params.tire, params.thermal
    m, a, b = vp.m, vp.a, vp.b
    L = vp.L

    # axle loads under weight transfer
    F_zf = b * m * vp.g / L - dFz
    F_zr = a * m * vp.g / L + dFz
    if F_zf <= 0.0 or F_zr <= 0.0:
        raise DegenerateLoadError(
            f"axle load non-positive (F_zf={F_zf:.1f} N, F_zr={F_zr:.1f} N)"
        )
    # front tire: slip angle, load-dependent cornering stiffness, Fiala law
    if Vx < VELOCITY_FLOOR:
        raise VelocityFloorError(
            f"Vx={Vx:.3f} m/s below the {VELOCITY_FLOOR} m/s slip-model floor"
        )
    alpha_f = math.atan((Vy + a * r) / Vx) - delta
    C_alpha = tp.C_alpha1 * F_zf + tp.C_alpha0
    if C_alpha <= 0.0:
        raise ModelDomainError(
            f"front cornering stiffness {C_alpha:.1f} N/rad non-positive "
            f"at F_zf={F_zf:.1f} N"
        )
    F_ymax = tp.mu_f * F_zf
    tan_a = math.tan(alpha_f)
    if abs(tan_a) > 3.0 * F_ymax / C_alpha:
        F_yf = -F_ymax * math.copysign(1.0, alpha_f)
    else:
        F_yf = (-C_alpha * tan_a
                + C_alpha * C_alpha / (3.0 * F_ymax) * abs(tan_a) * tan_a
                - C_alpha ** 3 / (27.0 * F_ymax * F_ymax) * tan_a ** 3)
    # rear tire: slip angle, slip ratio, friction map, combined-slip brush
    alpha_r = math.atan((Vy - b * r) / Vx)
    kappa_r = math.atan((vp.Re * omega - Vx) / Vx)
    if kappa_r <= -1.0:
        raise ModelDomainError(f"rear slip ratio {kappa_r:.3f} <= -1")
    mu_r = thp.mu_r1 * theta_r + thp.mu_r0
    if mu_r <= 0.0:
        raise ModelDomainError(
            f"friction map gives mu_r={mu_r:.4f} at theta={theta_r:.1f} degC"
        )
    tan_ar = math.tan(alpha_r)
    gx = tp.Cx * kappa_r / (kappa_r + 1.0)
    gy = tp.Cy * tan_ar / (kappa_r + 1.0)
    f = math.hypot(gx, gy)
    limit = mu_r * F_zr
    saturated = not f <= 3.0 * limit
    if f == 0.0:
        F_xr = F_yr = 0.0
    else:
        F = limit if saturated else (
            f - f * f / (3.0 * limit) + f ** 3 / (27.0 * limit * limit))
        F_xr = F * gx / f
        F_yr = -F * gy / f

    sin_d, cos_d = math.sin(delta), math.cos(delta)
    dVx = (-F_yf * sin_d + Fxf * cos_d + F_xr) / m + r * Vy
    dVy = (F_yf * cos_d + Fxf * sin_d + F_yr) / m - r * Vx
    dr = (a * F_yf * cos_d + a * Fxf * sin_d - b * F_yr) / vp.Iz
    domega = (tau - vp.Re * F_xr) / vp.J
    # first-order lag toward the quasi-static weight transfer
    ddFz = -vp.Kz * (dFz - (vp.h_cg / L) * (F_xr - F_yf * sin_d))
    # tread heat: partitioned slip loss plus rolling resistance, and the
    # lumped energy balance
    V_sx = Vx * kappa_r   # ~ Re*omega - Vx, wheel surplus speed
    V_sy = -Vx * tan_ar   # ~ -(Vy - b*r), opposes the axle slide
    Q = thp.alpha_tire * (V_sx * F_xr + V_sy * F_yr) + thp.eps_tire * F_zr * Vx
    dtheta = (Q - thp.KA_tire * (theta_r - thp.theta_out)) / thp.C_tire

    sin_psi, cos_psi = math.sin(psi), math.cos(psi)
    return (dVx, dVy, dr, domega, ddFz, dtheta,
            Vx * cos_psi - Vy * sin_psi, Vx * sin_psi + Vy * cos_psi, Q,
            saturated)


def vehicle_derivatives(params: ParamSet, state: VehicleState, inp: ControlInput,
                        kappa: float = 0.0) -> StateRates:
    """Full state derivative at one point (pure function of its arguments).

    An adapter over :func:`scalar_rates`, which gives the body and pose
    rates; this adds the path rates (e, s, dpsi).  ``kappa`` is the
    reference path curvature at the vehicle's arc length; it only affects
    the path states.
    """
    dVx, dVy, dr, domega, ddFz, dtheta, dX, dY, _, _ = scalar_rates(
        params, state.Vx, state.Vy, state.r, state.psi, state.omega,
        state.dFz, state.theta_r, inp.delta, inp.Fxf, inp.tau)

    sin_p, cos_p = math.sin(state.dpsi), math.cos(state.dpsi)
    denom = 1.0 - kappa * state.e
    if abs(denom) < 1e-6:
        raise PathSingularityError(
            f"1 - kappa*e = {denom:.2e}: lateral error reached the path's "
            "center of curvature"
        )
    de = state.Vy * cos_p + state.Vx * sin_p
    ds = (state.Vx * cos_p - state.Vy * sin_p) / denom
    ddpsi = state.r - kappa * ds

    return StateRates(Vx=dVx, Vy=dVy, r=dr, omega=domega, dFz=ddFz,
                      theta_r=dtheta, e=de, s=ds, dpsi=ddpsi,
                      psi=state.r, X=dX, Y=dY)
