"""The tire model one quantity at a time: the tests' oracle.

The package computes the tire forces and the tread heat in one flat kernel,
:func:`thermaldrift.model.scalar_rates`.  These helpers compute the same
quantities separately, in the order the kernel inlines them, so that the
kernel can be pinned to them bit for bit and each law can be tested on its
own (load conservation, the Fiala saturation, the friction circle, the sign
of the slip heating).  :func:`tire_forces` evaluates the whole chain at a
state and input; :func:`heat_generation` gives the tread heating power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from thermaldrift.errors import (
    DegenerateLoadError,
    ModelDomainError,
    VelocityFloorError,
)
from thermaldrift.model import (
    VELOCITY_FLOOR,
    ControlInput,
    VehicleState,
    friction_coefficient,
)
from thermaldrift.params import ParamSet, ThermalParams, TireParams, VehicleParams


@dataclass(frozen=True)
class TireForces:
    F_yf: float         # front lateral force, N
    F_xr: float         # rear longitudinal force, N
    F_yr: float         # rear lateral force, N
    F_zf: float         # front vertical load, N
    F_zr: float         # rear vertical load, N
    f: float            # combined-slip demand magnitude, N
    F_ymax: float       # front lateral saturation level, N
    alpha_slide: float  # front full-sliding slip angle, rad
    alpha_f: float      # front slip angle, rad
    alpha_r: float      # rear slip angle, rad
    kappa_r: float      # rear slip ratio
    mu_r: float         # evaluated rear friction coefficient


def vertical_loads(vp: VehicleParams, dFz: float) -> tuple[float, float]:
    """Front/rear axle loads under weight transfer; their sum is m*g."""
    static_front = vp.b * vp.m * vp.g / vp.L
    static_rear = vp.a * vp.m * vp.g / vp.L
    F_zf = static_front - dFz
    F_zr = static_rear + dFz
    if F_zf <= 0.0 or F_zr <= 0.0:
        raise DegenerateLoadError(
            f"axle load non-positive (F_zf={F_zf:.1f} N, F_zr={F_zr:.1f} N)"
        )
    return F_zf, F_zr


def weight_transfer_derivative(vp: VehicleParams, dFz: float,
                               F_xr: float, F_yf: float, delta: float) -> float:
    """First-order lag toward the quasi-static transfer level."""
    target = (vp.h_cg / vp.L) * (F_xr - F_yf * math.sin(delta))
    return -vp.Kz * (dFz - target)


def _check_floor(Vx: float) -> None:
    if Vx < VELOCITY_FLOOR:
        raise VelocityFloorError(
            f"Vx={Vx:.3f} m/s below the {VELOCITY_FLOOR} m/s slip-model floor"
        )


def front_slip_angle(Vx: float, Vy: float, r: float, delta: float, a: float) -> float:
    _check_floor(Vx)
    return math.atan((Vy + a * r) / Vx) - delta


def front_cornering_stiffness(tp: TireParams, F_zf: float) -> float:
    """Load-dependent front cornering stiffness (affine in the front load)."""
    if F_zf < 0.0:
        raise DegenerateLoadError(f"negative front load {F_zf:.1f} N")
    C_alpha = tp.C_alpha1 * F_zf + tp.C_alpha0
    if C_alpha <= 0.0:
        raise ModelDomainError(
            f"front cornering stiffness {C_alpha:.1f} N/rad non-positive "
            f"at F_zf={F_zf:.1f} N"
        )
    return C_alpha


def fiala_lateral_force(C_alpha: float, F_ymax: float, alpha: float) -> float:
    """Fiala brush lateral force, cubic up to full sliding, then saturated.

    Continuous and odd in alpha; the cubic meets -F_ymax*sign(alpha) exactly
    at alpha_slide = atan(3*F_ymax/C_alpha).
    """
    tan_a = math.tan(alpha)
    tan_slide = 3.0 * F_ymax / C_alpha
    if abs(tan_a) > tan_slide:
        return -F_ymax * math.copysign(1.0, alpha)
    return (-C_alpha * tan_a
            + C_alpha * C_alpha / (3.0 * F_ymax) * abs(tan_a) * tan_a
            - C_alpha ** 3 / (27.0 * F_ymax * F_ymax) * tan_a ** 3)


def rear_slip_quantities(vp: VehicleParams, Vx: float, Vy: float,
                         r: float, omega: float) -> tuple[float, float]:
    """Rear slip angle and slip ratio.

    The slip ratio is wrapped in an arctangent, which keeps it bounded for a
    locked wheel (kappa_r -> -pi/4 at omega = 0).
    """
    _check_floor(Vx)
    alpha_r = math.atan((Vy - vp.b * r) / Vx)
    kappa_r = math.atan((vp.Re * omega - Vx) / Vx)
    if kappa_r <= -1.0:
        raise ModelDomainError(f"rear slip ratio {kappa_r:.3f} <= -1")
    return alpha_r, kappa_r


def rear_combined_forces(tp: TireParams, mu_r: float, F_zr: float,
                         alpha_r: float, kappa_r: float) -> tuple[float, float, float]:
    """Combined-slip brush forces on the rear axle.

    Returns (F_xr, F_yr, f).  The resultant magnitude never exceeds
    mu_r*F_zr, and each component opposes its slip quantity's sliding
    direction (F_xr has the sign of kappa_r; F_yr the opposite sign of
    alpha_r).
    """
    if F_zr <= 0.0:
        raise DegenerateLoadError(f"rear load {F_zr:.1f} N non-positive")
    if mu_r <= 0.0:
        raise ModelDomainError(f"rear friction {mu_r:.4f} non-positive")
    if kappa_r <= -1.0:
        raise ModelDomainError(f"rear slip ratio {kappa_r:.3f} <= -1")
    gx = tp.Cx * kappa_r / (kappa_r + 1.0)
    gy = tp.Cy * math.tan(alpha_r) / (kappa_r + 1.0)
    f = math.hypot(gx, gy)
    if f == 0.0:
        return 0.0, 0.0, 0.0  # removable singularity: no slip, no force
    limit = mu_r * F_zr
    if f <= 3.0 * limit:
        F = f - f * f / (3.0 * limit) + f ** 3 / (27.0 * limit * limit)
    else:
        F = limit
    F_xr = F * gx / f
    F_yr = -F * gy / f
    return F_xr, F_yr, f


def heat_generation(thp: ThermalParams, Vx: float,
                    alpha_r: float, kappa_r: float,
                    F_xr: float, F_yr: float, F_zr: float) -> float:
    """Tread heating power: partitioned slip loss plus rolling resistance.

    The slip velocities carry the sign of the wheel sliding over the road, so
    the brush forces oppose them and both slip products are non-negative.
    """
    V_sx = Vx * kappa_r              # ~ Re*omega - Vx, wheel surplus speed
    V_sy = -Vx * math.tan(alpha_r)   # ~ -(Vy - b*r), opposes the axle slide
    slip_power = V_sx * F_xr + V_sy * F_yr
    return thp.alpha_tire * slip_power + thp.eps_tire * F_zr * Vx


def tire_forces(params: ParamSet, state: VehicleState, inp: ControlInput) -> TireForces:
    """Evaluate every tire quantity at the given state and input."""
    vp, tp, thp = params.vehicle, params.tire, params.thermal
    F_zf, F_zr = vertical_loads(vp, state.dFz)
    alpha_f = front_slip_angle(state.Vx, state.Vy, state.r, inp.delta, vp.a)
    C_alpha = front_cornering_stiffness(tp, F_zf)
    F_ymax = tp.mu_f * F_zf
    alpha_slide = math.atan(3.0 * F_ymax / C_alpha)
    F_yf = fiala_lateral_force(C_alpha, F_ymax, alpha_f)
    alpha_r, kappa_r = rear_slip_quantities(vp, state.Vx, state.Vy, state.r, state.omega)
    mu_r = friction_coefficient(thp, state.theta_r)
    F_xr, F_yr, f = rear_combined_forces(tp, mu_r, F_zr, alpha_r, kappa_r)
    return TireForces(
        F_yf=F_yf, F_xr=F_xr, F_yr=F_yr, F_zf=F_zf, F_zr=F_zr, f=f,
        F_ymax=F_ymax, alpha_slide=alpha_slide,
        alpha_f=alpha_f, alpha_r=alpha_r, kappa_r=kappa_r, mu_r=mu_r,
    )

