"""Drifting equilibria and the quasi-steady reference sweep.

An equilibrium fixes the turn radius, the sideslip angle, and the tread
temperature, and solves the five dynamic-state derivatives (yaw, speed,
sideslip, wheel speed, weight transfer) to zero over the unknowns
(r, omega, dFz, delta, tau).  The quasi-steady sweep then walks the tread
temperature along the path, re-solving the equilibrium at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundsError,
    ConvergenceError,
    InfeasibleError,
    ModelDomainError,
)
from .integrate import central_differences
from .limits import ActuatorLimits, default_limits
from .model import (
    VELOCITY_FLOOR,
    ControlInput,
    VehicleState,
    friction_coefficient,
    scalar_rates,
    vehicle_derivatives,  # noqa: F401  kept: perfbench/layers.py wraps equilibrium.vehicle_derivatives
)
from .params import ParamSet
from .paths import CirclePath

__all__ = ["DriftEquilibrium", "QuasiSteadyTrajectory",
           "find_equilibrium", "quasi_steady_sweep", "dynamic_residual",
           "check_radius", "check_sideslip", "check_arc"]

# Newton settings.  The residual tolerance is well below the 1e-8 contract so
# that downstream forward-integration checks start from machine-level rest.
_MAX_ITER = 100
_TOL_RESIDUAL = 1e-10
_TOL_STEP = 1e-12

#: arc-length spacing of the sweep's nodes, m
_DS = 0.25


@dataclass(frozen=True)
class DriftEquilibrium:
    """A root of the dynamic-state derivatives at fixed radius/sideslip/temp."""

    radius: float        # signed turn radius, m (positive = counter-clockwise)
    beta: float          # sideslip angle, rad
    theta_r: float       # tread temperature the root was solved at, degC
    mu_r: float          # evaluated rear friction coefficient
    r: float             # yaw rate, rad/s
    omega: float         # rear wheel speed, rad/s
    dFz: float           # weight transfer, N
    delta: float         # steering angle, rad
    tau: float           # rear axle torque, N m
    residual_norm: float

    @property
    def V(self) -> float:
        return self.r * self.radius

    def state(self, **pose) -> VehicleState:
        """Vehicle state at the equilibrium, riding the path (e = 0)."""
        return VehicleState.from_speed_beta(
            self.V, self.beta, r=self.r, omega=self.omega, dFz=self.dFz,
            theta_r=self.theta_r, dpsi=-self.beta, **pose)

    def input(self) -> ControlInput:
        return ControlInput(delta=self.delta, Fxf=0.0, tau=self.tau)

    def unknowns(self) -> np.ndarray:
        return np.array([self.r, self.omega, self.dFz, self.delta, self.tau])


def dynamic_residual(params: ParamSet, Vx: float, Vy: float, r: float,
                     omega: float, dFz: float, theta_r: float,
                     delta: float, tau: float) -> np.ndarray:
    """Derivatives of (r, V, beta, omega, dFz) at a point; zero at equilibrium.

    Plain floats in, as :func:`scalar_rates` takes them, at heading 0 and
    with no front braking force; it builds no state or input value.
    """
    dVx, dVy, dr, domega, ddFz, *_ = scalar_rates(
        params, Vx, Vy, r, 0.0, omega, dFz, theta_r, delta, 0.0, tau)
    V = math.hypot(Vx, Vy)
    dV = (Vx * dVx + Vy * dVy) / V
    dbeta = (Vx * dVy - Vy * dVx) / (V * V)
    return np.array([dr, dV, dbeta, domega, ddFz])


def _default_guess(radius: float, params: ParamSet) -> np.ndarray:
    V_target = 9.0  # m/s, lands in the drift basin for ~15 m radii
    return np.array([
        V_target / radius,
        V_target * 1.3 / params.vehicle.Re,
        0.0,
        -math.copysign(math.radians(10.0), radius),
        1000.0,
    ])


def check_radius(radius: float) -> None:
    """Raise ValueError unless an equilibrium can be solved on ``radius``."""
    if abs(radius) < 5.0:
        raise ValueError("|radius| must be at least 5 m")


def check_sideslip(beta_target: float) -> None:
    """Raise ValueError unless an equilibrium can be solved at
    ``beta_target`` (rad)."""
    if abs(beta_target) >= math.radians(80.0):
        raise ValueError("|beta_target| must be below 80 deg")


def check_arc(total_arc: float) -> None:
    """Raise ValueError unless a sweep can take ``total_arc`` in steps of
    ``_DS``."""
    if total_arc < _DS:
        raise ValueError(f"total_arc must be at least one step ({_DS:g} m)")


def find_equilibrium(params: ParamSet, radius: float, beta_target: float,
                     theta_r: float, guess=None,
                     limits: ActuatorLimits | None = None) -> DriftEquilibrium:
    """Damped-Newton root of the drifting equilibrium conditions.

    Unknowns are (r, omega, dFz, delta, tau); the speed is tied to the yaw
    rate by V = r * radius and the sideslip is pinned to ``beta_target``.
    The front braking force is not used and stays at zero.
    """
    check_radius(radius)
    check_sideslip(beta_target)
    mu_r = friction_coefficient(params.thermal, theta_r)
    limits = limits or default_limits()

    # from_speed_beta's arithmetic, with the sideslip's sine and cosine
    # taken once per solve
    cos_b, sin_b = math.cos(beta_target), math.sin(beta_target)

    def residual(r, omega, dFz, delta, tau):
        V = r * radius
        if V < VELOCITY_FLOOR:
            return None
        try:
            return dynamic_residual(params, V * cos_b, V * sin_b, r, omega,
                                    dFz, theta_r, delta, tau)
        except ModelDomainError:
            return None

    z = np.asarray(guess, dtype=float).copy() if guess is not None \
        else _default_guess(radius, params)
    res = residual(*z.tolist())
    if res is None:
        raise ValueError("initial guess is outside the model's domain")
    norm = float(np.linalg.norm(res))

    for _ in range(_MAX_ITER):
        if norm < _TOL_RESIDUAL:
            break
        columns = central_differences(residual, z.tolist())
        if columns is None:
            raise ConvergenceError("Jacobian evaluation left the model domain")
        J = np.array(columns).T
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        # backtracking line search on the residual norm
        alpha = 1.0
        while alpha > 1e-6:
            z_trial = z + alpha * step
            res_trial = residual(*z_trial.tolist())
            if res_trial is not None:
                norm_trial = float(np.linalg.norm(res_trial))
                if norm_trial < (1.0 - 1e-4 * alpha) * norm:
                    z, res, norm = z_trial, res_trial, norm_trial
                    break
            alpha *= 0.5
        else:  # no step length decreased the residual norm
            break
        if float(np.linalg.norm(alpha * step)) < _TOL_STEP:
            break

    r, omega, dFz, delta, tau = z.tolist()
    if norm > 1e-8:
        # the kernel's rear law at the last iterate tells a saturated tire
        # from a stall; a point outside the kernel's domain stalled
        V = max(r * radius, VELOCITY_FLOOR)
        try:
            saturated = scalar_rates(params, V * cos_b, V * sin_b, r, 0.0,
                                     omega, dFz, theta_r, delta, 0.0, tau)[9]
        except ModelDomainError:
            saturated = False
        if saturated:
            raise InfeasibleError(
                f"no equilibrium at radius={radius} m, beta={beta_target:.3f} "
                f"rad, theta={theta_r:.1f} degC: rear tire saturated with "
                f"residual {norm:.2e}")
        raise ConvergenceError(
            f"equilibrium solve stalled with residual {norm:.2e}")

    if not limits.delta_min <= delta <= limits.delta_max:
        raise BoundsError(
            f"equilibrium steering {math.degrees(delta):.1f} deg exceeds "
            "the steering limit")
    if not limits.tau_min <= tau <= limits.tau_max:
        raise BoundsError(
            f"equilibrium torque {tau:.0f} N m exceeds the torque limit")
    return DriftEquilibrium(
        radius=radius, beta=beta_target, theta_r=theta_r, mu_r=mu_r,
        r=r, omega=omega, dFz=dFz, delta=delta, tau=tau,
        residual_norm=norm)


@dataclass(frozen=True)
class QuasiSteadyTrajectory:
    """Arc-length grid of drifting equilibria with an evolving temperature,
    driven on ``circle``."""

    circle: CirclePath
    beta_target: float
    ds: float
    thermal: bool                    # False = friction frozen at theta[0]
    s: np.ndarray                    # (n,) node arc lengths, m
    t: np.ndarray                    # (n,) elapsed time, s
    theta: np.ndarray                # (n,) tread temperature, degC
    Q: np.ndarray                    # (n,) heat rate at each node, W
    equilibria: list = field(repr=False)

    @property
    def radius(self) -> float:
        """Signed radius of the circle (positive = counter-clockwise)."""
        return self.circle.radius

    @property
    def n_nodes(self) -> int:
        return len(self.equilibria)

    def s_span(self) -> tuple[float, float]:
        return float(self.s[0]), float(self.s[-1])

    def sample(self, s: float):
        """Reference (state, input, curvature) at arc length s.

        Equilibria are taken from the nearest node (they are not safely
        interpolable); the pose is placed on ``circle`` at the exact
        requested s.
        """
        k = int(np.clip(np.round((s - self.s[0]) / self.ds), 0, self.n_nodes - 1))
        eq = self.equilibria[k]
        x, y, phi = self.circle.pose(s)
        state = eq.state(s=s, psi=phi - eq.beta, X=x, Y=y)
        return state, eq.input(), 1.0 / self.radius


def quasi_steady_sweep(params: ParamSet, radius: float, beta_target: float,
                       theta0: float, total_arc: float, *,
                       thermal: bool = True, mu_const: float | None = None,
                       limits: ActuatorLimits | None = None) -> QuasiSteadyTrajectory:
    """Sweep equilibria along a circle while the tread temperature evolves.

    With ``mu_const`` set, planning runs at a frozen friction coefficient:
    the temperature is pinned to the map's equivalent temperature so every
    node carries a consistent (theta, mu) pair.  ``thermal=False`` freezes
    the temperature at ``theta0`` instead.  With a frozen temperature every
    node shares node 0's equilibrium, which is solved once.
    """
    check_arc(total_arc)
    ds = _DS
    thp = params.thermal
    if mu_const is not None:
        theta0 = (mu_const - thp.mu_r0) / thp.mu_r1
        thermal = False

    n = int(round(total_arc / ds)) + 1
    s = np.arange(n) * ds
    t = np.zeros(n)
    theta = np.zeros(n)
    Q = np.zeros(n)
    equilibria = []

    theta_k = float(theta0)
    z_guess = None
    for k in range(n):
        # a frozen temperature never moves: every node is node 0's root
        if thermal or k == 0:
            try:
                eq = find_equilibrium(params, radius, beta_target, theta_k,
                                      guess=z_guess, limits=limits)
            except (ConvergenceError, InfeasibleError, BoundsError) as exc:
                raise type(exc)(
                    f"sweep node {k} (s={s[k]:.2f} m): {exc}") from exc
            # the tread heating power and temperature rate at the node
            st = eq.state()
            rates = scalar_rates(params, st.Vx, st.Vy, st.r, st.psi,
                                 st.omega, st.dFz, st.theta_r, eq.delta, 0.0,
                                 eq.tau)
            Q_k, dtheta = rates[8], rates[5]
        theta[k] = theta_k
        Q[k] = Q_k
        equilibria.append(eq)
        if k + 1 < n:
            dt = ds / eq.V  # ds/dt on the path with e = 0
            t[k + 1] = t[k] + dt
            if thermal:
                theta_k = theta_k + dt * dtheta
        z_guess = eq.unknowns()

    return QuasiSteadyTrajectory(
        circle=CirclePath(radius), beta_target=beta_target, ds=ds,
        thermal=thermal, s=s, t=t, theta=theta, Q=Q, equilibria=equilibria)
