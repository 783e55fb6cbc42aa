"""The tire model one quantity at a time: the tests' oracle.

The package computes the tire forces and the tread heat in one flat kernel,
:func:`thermaldrift.model.scalar_rates`.  These helpers compute the same
quantities separately, in the order the kernel inlines them, so that the
kernel can be pinned to them bit for bit and each law can be tested on its
own (load conservation, the Fiala saturation, the friction circle, the sign
of the slip heating).  :func:`tire_forces` evaluates the whole chain at a
state and input; :func:`heat_generation` gives the tread heating power and
:func:`thermal_derivative` the lumped energy balance's temperature rate.

:func:`thermal_fixed_point` bisects the kernel's temperature rate over the
tread temperature of the drift equilibria on one circle, for the
equilibrium whose temperature is also stationary.

:func:`sweep_residual` is the equilibrium Newton residual built the way the
package once built it, through :class:`VehicleState` and
:class:`ControlInput` values, for pinning the float-only residual of
:func:`thermaldrift.equilibrium.find_equilibrium` to it.

:func:`rates_batch_rows` is the transcription's batched kernel laid out row
last, ``(..., 12)``, with the cubic evaluated on every lane, as the package
once computed it; the components-first
:func:`thermaldrift.trajopt._rates_batch` equals it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from thermaldrift.equilibrium import DriftEquilibrium, find_equilibrium
from thermaldrift.errors import (
    ConvergenceError,
    DegenerateLoadError,
    ModelDomainError,
    VelocityFloorError,
)
from thermaldrift.model import (
    VELOCITY_FLOOR,
    ControlInput,
    VehicleState,
    friction_coefficient,
    scalar_rates,
)
from thermaldrift.params import ParamSet, ThermalParams, TireParams, VehicleParams
from thermaldrift.trajopt import IX


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
    saturated: bool     # rear brush law past full sliding


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
                         alpha_r: float, kappa_r: float) -> tuple[float, float, float, bool]:
    """Combined-slip brush forces on the rear axle.

    Returns (F_xr, F_yr, f, saturated), ``saturated`` True exactly when the
    law takes its full-sliding branch.  The resultant magnitude never
    exceeds mu_r*F_zr, and each component opposes its slip quantity's
    sliding direction (F_xr has the sign of kappa_r; F_yr the opposite sign
    of alpha_r).
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
        return 0.0, 0.0, 0.0, False  # removable singularity: no slip, no force
    limit = mu_r * F_zr
    saturated = not f <= 3.0 * limit
    if saturated:
        F = limit
    else:
        F = f - f * f / (3.0 * limit) + f ** 3 / (27.0 * limit * limit)
    F_xr = F * gx / f
    F_yr = -F * gy / f
    return F_xr, F_yr, f, saturated


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


def thermal_derivative(thp: ThermalParams, theta_r: float, Q_tire: float) -> float:
    """Tread temperature rate from the lumped energy balance, K/s."""
    return (Q_tire - thp.KA_tire * (theta_r - thp.theta_out)) / thp.C_tire


#: thermal fixed-point bisection: upper end of the bracket (the lower end is
#: the ambient temperature) and the bracket width it stops at, degC
_FIXED_POINT_HI = 119.0
_FIXED_POINT_TOL = 1e-10


def thermal_fixed_point(params: ParamSet, radius: float,
                        beta_target: float) -> DriftEquilibrium:
    """Equilibrium whose tread temperature is also stationary.

    Bisects the kernel's thermal rate over the temperature between the
    ambient temperature and 119 degC; the returned equilibrium has all
    dynamic-state derivatives and the temperature derivative at zero.
    """
    def theta_rate(theta: float) -> float:
        eq = find_equilibrium(params, radius, beta_target, theta)
        st = eq.state()
        return scalar_rates(params, st.Vx, st.Vy, st.r, st.psi, st.omega,
                            st.dFz, st.theta_r, eq.delta, 0.0, eq.tau)[5]

    a, b = params.thermal.theta_out, _FIXED_POINT_HI
    fa, fb = theta_rate(a), theta_rate(b)
    if fa * fb > 0.0:
        raise ConvergenceError(
            f"no thermal fixed point bracketed in [{a}, {b}] degC")
    while b - a > _FIXED_POINT_TOL:
        m = 0.5 * (a + b)
        fm = theta_rate(m)
        if fa * fm <= 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return find_equilibrium(params, radius, beta_target, 0.5 * (a + b))


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
    F_xr, F_yr, f, saturated = rear_combined_forces(tp, mu_r, F_zr, alpha_r,
                                                    kappa_r)
    return TireForces(
        F_yf=F_yf, F_xr=F_xr, F_yr=F_yr, F_zf=F_zf, F_zr=F_zr, f=f,
        F_ymax=F_ymax, alpha_slide=alpha_slide,
        alpha_f=alpha_f, alpha_r=alpha_r, kappa_r=kappa_r, mu_r=mu_r,
        saturated=saturated,
    )


def state_residual(params: ParamSet, state: VehicleState,
                   inp: ControlInput) -> np.ndarray:
    """Derivatives of (r, V, beta, omega, dFz) at a state and input."""
    Vx, Vy = state.Vx, state.Vy
    dVx, dVy, dr, domega, ddFz, *_ = scalar_rates(
        params, Vx, Vy, state.r, state.psi, state.omega, state.dFz,
        state.theta_r, inp.delta, inp.Fxf, inp.tau)
    V = state.V
    dV = (Vx * dVx + Vy * dVy) / V
    dbeta = (Vx * dVy - Vy * dVx) / (V * V)
    return np.array([dr, dV, dbeta, domega, ddFz])


def sweep_residual(radius: float, beta_target: float):
    """A stand-in for ``equilibrium.dynamic_residual`` in a solve at
    ``radius`` and ``beta_target``: it rebuilds the point from the speed
    V = r * radius with ``VehicleState.from_speed_beta``, checks that the
    package's (Vx, Vy) are that state's, and evaluates
    :func:`state_residual` there."""
    def residual(params, Vx, Vy, r, omega, dFz, theta_r, delta, tau):
        state = VehicleState.from_speed_beta(
            r * radius, beta_target, r=r, omega=omega, dFz=dFz,
            theta_r=theta_r)
        assert (Vx, Vy) == (state.Vx, state.Vy)
        return state_residual(params, state,
                              ControlInput(delta=delta, Fxf=0.0, tau=tau))
    return residual


def rates_batch_rows(x: np.ndarray, params: ParamSet, u: np.ndarray) -> np.ndarray:
    """The extended-state rates over leading axes: ``x`` is ``(..., 12)``
    and ``u`` is ``(..., 2)``."""
    vp, tp, thp = params.vehicle, params.tire, params.thermal
    Vx = np.maximum(x[..., IX.Vx], 1.0)
    Vy = x[..., IX.Vy]
    r = x[..., IX.r]
    psi = x[..., IX.psi]
    omega = x[..., IX.omega]
    dFz = x[..., IX.dFz]
    delta = x[..., IX.delta]
    tau = x[..., IX.tau]
    theta = x[..., IX.theta]

    mg = vp.m * vp.g
    F_zf = np.clip(vp.b * mg / vp.L - dFz, 1.0, mg)
    F_zr = np.clip(vp.a * mg / vp.L + dFz, 1.0, mg)

    alpha_f = np.arctan((Vy + vp.a * r) / Vx) - delta
    C_alpha = np.maximum(tp.C_alpha1 * F_zf + tp.C_alpha0, 1e3)
    F_ymax = tp.mu_f * F_zf
    tan_af = np.tan(np.clip(alpha_f, -1.5, 1.5))
    tan_slide = 3.0 * F_ymax / C_alpha
    cubic = (-C_alpha * tan_af
             + C_alpha ** 2 / (3.0 * F_ymax) * np.abs(tan_af) * tan_af
             - C_alpha ** 3 / (27.0 * F_ymax ** 2) * tan_af ** 3)
    F_yf = np.where(np.abs(tan_af) > tan_slide,
                    -F_ymax * np.sign(alpha_f), cubic)

    alpha_r = np.arctan((Vy - vp.b * r) / Vx)
    kappa_r = np.arctan((vp.Re * omega - Vx) / Vx)
    kp1 = np.maximum(kappa_r + 1.0, 0.05)
    mu_r = np.maximum(thp.mu_r1 * theta + thp.mu_r0, 0.05)
    gx = tp.Cx * kappa_r / kp1
    gy = tp.Cy * np.tan(alpha_r) / kp1
    f = np.hypot(gx, gy)
    limit = mu_r * F_zr
    F = np.where(f <= 3.0 * limit,
                 f - f * f / (3.0 * limit) + f ** 3 / (27.0 * limit * limit),
                 limit)
    f_safe = np.where(f > 0.0, f, 1.0)
    F_xr = np.where(f > 0.0, F * gx / f_safe, 0.0)
    F_yr = np.where(f > 0.0, -F * gy / f_safe, 0.0)

    sin_d, cos_d = np.sin(delta), np.cos(delta)
    dVx = (-F_yf * sin_d + F_xr) / vp.m + r * Vy
    dVy = (F_yf * cos_d + F_yr) / vp.m - r * Vx
    dr = (vp.a * F_yf * cos_d - vp.b * F_yr) / vp.Iz
    domega = (tau - vp.Re * F_xr) / vp.J
    ddFz = -vp.Kz * (dFz - (vp.h_cg / vp.L) * (F_xr - F_yf * sin_d))
    V_sx = Vx * kappa_r
    V_sy = -Vx * np.tan(alpha_r)
    Q = thp.alpha_tire * (V_sx * F_xr + V_sy * F_yr) + thp.eps_tire * F_zr * Vx
    dtheta = (Q - thp.KA_tire * (theta - thp.theta_out)) / thp.C_tire

    out = np.empty_like(x)
    out[..., IX.Vx] = dVx
    out[..., IX.Vy] = dVy
    out[..., IX.r] = dr
    out[..., IX.psi] = r
    out[..., IX.omega] = domega
    out[..., IX.dFz] = ddFz
    out[..., IX.X] = Vx * np.cos(psi) - Vy * np.sin(psi)
    out[..., IX.Y] = Vx * np.sin(psi) + Vy * np.cos(psi)
    out[..., IX.delta] = u[..., 0]
    out[..., IX.tau] = u[..., 1]
    out[..., IX.theta] = dtheta
    out[..., IX.s] = np.hypot(Vx, Vy)
    return out
