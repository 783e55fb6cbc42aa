"""Dynamic transition trajectories by direct multiple shooting.

The maneuver between two steady drifting circles is solved as a finite
optimization problem: N RK4 steps of the full dynamic state (body states,
pose, actuator positions, tread temperature, traveled distance), slew-rate
inputs, a free uniform step duration, slew and transition-distance costs,
terminal curvature/sideslip conditions, and actuator box bounds.  Its
settings are a :class:`PlannerConfig`; :class:`TransitionProblem` extends it.

The solve is a primal-dual interior-point method on the multiple-shooting
variables, in two phases: a Gauss-Newton feasibility phase that walks the
initial guess onto the dynamics and terminal constraints, then an optimality
phase whose Newton matrix holds the exact cost Hessian plus a
finite-difference Hessian of the constraints (stage blocks projected onto
the positive semidefinite cone where the curvature along a step is
negative).  Steps are accepted by a filter line search.  Each Newton step is
one banded LU factorization (LAPACK ``dgbtrf``) of the KKT system ordered
stage by stage; the free step duration, the only variable coupling all
stages, is a border that costs one extra back-substitution.  A
Gauss-Newton polish then drives the terminal residual to machine level: it
re-integrates the inputs with the scalar RK4 step and takes least-norm input
corrections from the same Jacobian and banded factorization.  The returned
states are that exact re-integration of the returned inputs, so the
dynamics defects are zero by construction.

The constraints and their finite-difference derivatives take every RK4
step from one evaluator, :meth:`_Transcription.steps`, which steps the
stages under a table of offsets, one row per stencil point, laid out
components first, ``(12, stages, points)``, so each state component is one
contiguous slab.  It steps a large stencil in blocks of whole stages, so
the model's temporaries take a few MiB, not ten.  The batched model
is elementwise, so a lane's bits do not depend on the layout or the
blocking, and it equals its row-last form, kept in the tests as the oracle,
bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy

from .errors import (ConfigError, ConvergenceError, InfeasibleError,
                     ModelDomainError)
from .integrate import rk4
from .limits import ActuatorLimits, default_limits
from .model import (
    ControlInput,
    VehicleState,
    scalar_rates,
    vehicle_derivatives,  # noqa: F401  kept: perfbench/layers.py wraps trajopt.vehicle_derivatives
)
from .params import ParamSet, ThermalParams, parse_keyvalue

__all__ = [
    "IX",
    "TransitionProblem",
    "DynamicTrajectory",
    "PlannerConfig",
    "extended_rates",
    "extended_state",
    "rk4_step",
    "solve_transition",
    "initial_guess",
    "load_planner_config",
]

_log = logging.getLogger(__name__)


class IX:
    """Index map of the extended state; ``names`` lists it in index order."""

    names = ("Vx", "Vy", "r", "psi", "omega", "dFz", "X", "Y",
             "delta", "tau", "theta", "s")
    Vx, Vy, r, psi, omega, dFz, X, Y, delta, tau, theta, s = range(12)
    n = len(names)


def extended_state(state: VehicleState, inp: ControlInput) -> np.ndarray:
    """``state`` and its inputs ``inp`` packed in IX order."""
    return np.array([state.Vx, state.Vy, state.r, state.psi, state.omega,
                     state.dFz, state.X, state.Y, inp.delta, inp.tau,
                     state.theta_r, state.s])


#: characteristic magnitudes used to scale the decision variables
_X_SCALE = np.array([10.0, 10.0, 1.0, 1.0, 30.0, 1e4,
                     10.0, 10.0, 1.0, 1000.0, 100.0, 10.0])
_U_SCALE = np.array([1.0, 1000.0])
_H_SCALE = 0.1
#: the same scales for one stage's 15 variables: its 12 states, 2 inputs and h
_STAGE_SCALE = np.concatenate([_X_SCALE, _U_SCALE, [_H_SCALE]])
_NO_OFFSET = np.zeros((1, _STAGE_SCALE.size))
#: stage x stencil-point lanes per batched RK4 call of _Transcription.steps.
#: The model and RK4 hold a few dozen temporaries per lane, so the 91-point
#: Hessian stencil over 100 stages works on about 10 MB in one call.  In
#: three blocks its traced peak falls from 7.8 to 3.6 MiB and the
#: criterion-6 solve's peak RSS by about 4 MiB.  2048 lanes save no more
#: memory and split the 30-point Jacobian stencil, whose extra call costs
#: more time than it saves; 8192 saves 1 MiB less.  The constraints and that
#: Jacobian at N = 100 fit one block.
_STEP_LANES = 4096

#: extended-state components the RK4 step depends on nonlinearly; X, Y and s
#: are integrated outputs that no rate depends on
_CURVED = np.array([IX.Vx, IX.Vy, IX.r, IX.psi, IX.omega, IX.dFz,
                    IX.delta, IX.tau, IX.theta])


def _second_stencil(n: int, eps: float) -> np.ndarray:
    """Offsets of a second-difference stencil over ``n`` variables with step
    ``eps``: the centre, then +e_i, -e_i and e_i + e_j (i < j)."""
    iu, ju = np.triu_indices(n, 1)
    E = np.eye(n) * eps
    return np.concatenate([np.zeros((1, n)), E, -E, E[iu] + E[ju]])


def _second_differences(c, n: int, eps: float, larger_first: bool):
    """``(..., n, n)`` Hessians from values ``c`` on :func:`_second_stencil`:
    central differences on the diagonal, forward ones off it, subtracting
    the +e of the larger index first if ``larger_first``."""
    iu, ju = np.triu_indices(n, 1)
    a, b = (ju, iu) if larger_first else (iu, ju)
    c0, plus = c[..., :1], c[..., 1:1 + n]
    minus, pair = c[..., 1 + n:1 + 2 * n], c[..., 1 + 2 * n:]
    H = np.empty(c.shape[:-1] + (n, n))
    H[..., np.arange(n), np.arange(n)] = (plus - 2.0 * c0 + minus) / eps ** 2
    off = (pair - plus[..., a] - plus[..., b] + c0) / eps ** 2
    H[..., iu, ju] = off
    H[..., ju, iu] = off
    return H


def extended_rates(x: np.ndarray, params: ParamSet, u: np.ndarray) -> np.ndarray:
    """Time derivative of the extended state (scalar, strict model)."""
    Vx, Vy, r, psi, omega, dFz, _, _, delta, tau, theta, _ = x.tolist()
    dVx, dVy, dr, domega, ddFz, dtheta, dX, dY, _, _ = scalar_rates(
        params, Vx, Vy, r, psi, omega, dFz, theta, delta, 0.0, tau)
    # the IX layout: Vx, Vy, r, psi, omega, dFz, X, Y, delta, tau, theta, s
    return np.array([dVx, dVy, dr, r, domega, ddFz, dX, dY,
                     u[0], u[1], dtheta, math.hypot(Vx, Vy)])


def rk4_step(params: ParamSet, x: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of the extended dynamics under a held slew-rate input."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    return rk4(extended_rates, np.asarray(x, dtype=float), h, params, u)


# ---------------------------------------------------------------------------
# batched (vectorized) dynamics used only inside the optimizer
# ---------------------------------------------------------------------------

def _rates_batch(x: np.ndarray, params: ParamSet, u: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`extended_rates`, components first.

    ``x`` is ``(12, ...)`` and ``u`` is ``(2, ...)``: ``x[IX.Vx]`` is one
    contiguous slab of a C-ordered stencil, and the rates come back in the
    same layout.  Every operation is elementwise, so a lane's rates do not
    depend on its place in the batch.  Mildly guarded (speed floor, load
    clipping) so that intermediate optimizer iterates cannot leave the
    model's domain; the guards are inactive at any physically sensible
    solution, which the final scalar re-integration verifies.  It stays
    separate from the scalar model because on a single row it costs several
    times what the simulator's scalar path does; it pays off only over the
    transcription's many rows.
    """
    vp, tp, thp = params.vehicle, params.tire, params.thermal
    Vx = np.maximum(x[IX.Vx], 1.0)
    Vy = x[IX.Vy]
    r = x[IX.r]
    psi = x[IX.psi]
    omega = x[IX.omega]
    dFz = x[IX.dFz]
    delta = x[IX.delta]
    tau = x[IX.tau]
    theta = x[IX.theta]

    mg = vp.m * vp.g
    F_zf = np.minimum(np.maximum(vp.b * mg / vp.L - dFz, 1.0), mg)
    F_zr = np.minimum(np.maximum(vp.a * mg / vp.L + dFz, 1.0), mg)

    alpha_f = np.arctan((Vy + vp.a * r) / Vx) - delta
    C_alpha = np.maximum(tp.C_alpha1 * F_zf + tp.C_alpha0, 1e3)
    F_ymax = tp.mu_f * F_zf
    tan_af = np.tan(np.minimum(np.maximum(alpha_f, -1.5), 1.5))
    # the Fiala cubic only where the front grips (a NaN lane counts as
    # gripping): numpy's pow is far slower for the negative bases of its cube
    grip = ~(np.abs(tan_af) > 3.0 * F_ymax / C_alpha)
    F_yf = -F_ymax * np.sign(alpha_f)
    Cg, Fg, tg = C_alpha[grip], F_ymax[grip], tan_af[grip]
    F_yf[grip] = (-Cg * tg
                  + Cg ** 2 / (3.0 * Fg) * np.abs(tg) * tg
                  - Cg ** 3 / (27.0 * Fg ** 2) * tg ** 3)

    alpha_r = np.arctan((Vy - vp.b * r) / Vx)
    tan_ar = np.tan(alpha_r)
    kappa_r = np.arctan((vp.Re * omega - Vx) / Vx)
    kp1 = np.maximum(kappa_r + 1.0, 0.05)
    mu_r = np.maximum(thp.mu_r1 * theta + thp.mu_r0, 0.05)
    gx = tp.Cx * kappa_r / kp1
    gy = tp.Cy * tan_ar / kp1
    f = np.hypot(gx, gy)
    limit = mu_r * F_zr
    F = np.where(f <= 3.0 * limit,
                 f - f * f / (3.0 * limit) + f ** 3 / (27.0 * limit * limit),
                 limit)
    slipping = f > 0.0
    f_safe = np.where(slipping, f, 1.0)
    F_xr = np.where(slipping, F * gx / f_safe, 0.0)
    F_yr = np.where(slipping, -F * gy / f_safe, 0.0)

    sin_d, cos_d = np.sin(delta), np.cos(delta)
    dVx = (-F_yf * sin_d + F_xr) / vp.m + r * Vy
    dVy = (F_yf * cos_d + F_yr) / vp.m - r * Vx
    dr = (vp.a * F_yf * cos_d - vp.b * F_yr) / vp.Iz
    domega = (tau - vp.Re * F_xr) / vp.J
    ddFz = -vp.Kz * (dFz - (vp.h_cg / vp.L) * (F_xr - F_yf * sin_d))
    V_sx = Vx * kappa_r
    V_sy = -Vx * tan_ar
    Q = thp.alpha_tire * (V_sx * F_xr + V_sy * F_yr) + thp.eps_tire * F_zr * Vx
    dtheta = (Q - thp.KA_tire * (theta - thp.theta_out)) / thp.C_tire

    sin_p, cos_p = np.sin(psi), np.cos(psi)
    out = np.empty_like(x)
    out[IX.Vx] = dVx
    out[IX.Vy] = dVy
    out[IX.r] = dr
    out[IX.psi] = r
    out[IX.omega] = domega
    out[IX.dFz] = ddFz
    out[IX.X] = Vx * cos_p - Vy * sin_p
    out[IX.Y] = Vx * sin_p + Vy * cos_p
    out[IX.delta] = u[0]
    out[IX.tau] = u[1]
    out[IX.theta] = dtheta
    out[IX.s] = np.hypot(Vx, Vy)
    return out


def _rk4_batch(params, x, u, h):
    """Batched RK4 step, components first: ``x`` is ``(12, ...)``, ``u`` is
    ``(2, ...)`` and ``h`` broadcasts over the trailing axes."""
    return rk4(_rates_batch, x, h, params, u)


# ---------------------------------------------------------------------------
# planner configuration (file keys mirror the symbol table: angles in deg,
# torques in kN m, torque-slew weight in (kN m/s)^-2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class PlannerConfig:
    """The transition's settings, declared here only; the step count is the
    attribute ``N`` and the planner-file key ``n_steps``."""

    k_ddelta: float = 1e4   # (rad/s)^-2
    k_dtau: float = 1e-4    # (N m/s)^-2
    k_s: float = 200.0      # m^-2, transition-distance weight
    N: int = 100
    h_min: float = 0.01     # s
    h_max: float = 0.1      # s
    limits: ActuatorLimits = field(default_factory=default_limits)

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("the step count must be at least 2")
        if not (self.h_min > 0.0 and self.h_min < self.h_max):
            raise ValueError("step-duration bounds out of order")
        if not all(w >= 0.0 for w in (self.k_ddelta, self.k_dtau, self.k_s)):
            raise ValueError("cost weights must be non-negative")


# file key -> (attribute, scale to SI)
_PLANNER_KEYS = {
    "k_ddelta":   ("k_ddelta", 1.0),
    "k_dtau":     ("k_dtau", 1e-6),          # (kN m/s)^-2 -> (N m/s)^-2
    "k_s":        ("k_s", 1.0),
    "n_steps":    ("N", 1.0),
    "h_min":      ("h_min", 1.0),
    "h_max":      ("h_max", 1.0),
    "delta_min":  ("delta_min", math.pi / 180.0),
    "delta_max":  ("delta_max", math.pi / 180.0),
    "ddelta_min": ("ddelta_min", math.pi / 180.0),
    "ddelta_max": ("ddelta_max", math.pi / 180.0),
    "tau_min":    ("tau_min", 1e3),          # kN m -> N m
    "tau_max":    ("tau_max", 1e3),
    "dtau_min":   ("dtau_min", 1e3),
    "dtau_max":   ("dtau_max", 1e3),
}


def load_planner_config(path) -> PlannerConfig:
    """Load planner settings; keys absent from the file keep their defaults.
    Values out of order or range raise ConfigError naming the file."""
    values = parse_keyvalue(path)
    unknown = sorted(set(values) - set(_PLANNER_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown planner keys: {', '.join(unknown)}")
    scalars = {}
    lim_kwargs = {}
    for key, raw in values.items():
        if key == "n_steps" and not raw.is_integer():
            raise ConfigError(
                f"{path}: n_steps must be a whole number, got {raw!r}")
        attr, scale = _PLANNER_KEYS[key]
        value = int(raw) if key == "n_steps" else raw * scale
        if attr.startswith(("delta", "ddelta", "tau", "dtau")):
            lim_kwargs[attr] = value
        else:
            scalars[attr] = value
    try:
        return PlannerConfig(limits=replace(default_limits(), **lim_kwargs),
                             **scalars)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# problem and result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionProblem(PlannerConfig):
    params: ParamSet
    x_initial: np.ndarray       # (12,) extended state at hand-over
    kappa_final: float          # 1/m, signed curvature of the next circle
    beta_final: float           # rad
    y_center_target: float | None = None  # figure-8: lateral center alignment

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "x_initial", np.array(self.x_initial, float))
        if self.x_initial.shape != (IX.n,):
            raise ValueError(f"x_initial must have {IX.n} components")


@dataclass(frozen=True)
class DynamicTrajectory:
    """Optimized transition: states are the exact RK4 rollout of the inputs.

    It is its own centerline: the chords between its planned positions, keyed
    by its traveled distance ``s``."""

    t: np.ndarray          # (N+1,)
    states: np.ndarray     # (N+1, 12)
    inputs: np.ndarray     # (N, 2): [ddelta, dtau]
    h: float               # uniform step duration, s
    J: float               # total cost
    input_cost: float
    distance_cost: float
    terminal_residual: float   # max abs scaled terminal-constraint violation
    max_defect: float          # max abs scaled dynamics defect of the states
    n_outer: int

    @property
    def s(self) -> np.ndarray:
        return self.states[:, IX.s]

    @property
    def transition_length(self) -> float:
        return float(self.states[-1, IX.s] - self.states[0, IX.s])

    def s_span(self) -> tuple[float, float]:
        return float(self.s[0]), float(self.s[-1])

    @cached_property
    def _course_curvature(self) -> np.ndarray:
        beta = np.arctan2(self.states[:, IX.Vy], self.states[:, IX.Vx])
        chi = np.unwrap(self.states[:, IX.psi] + beta)
        return np.gradient(chi, self.s)

    def sample(self, s: float):
        """Reference (state, input, curvature) at arc length s by linear
        interpolation over the (strictly increasing) traveled distance."""
        grid = self.s
        x = np.array([np.interp(s, grid, self.states[:, j]) for j in range(IX.n)])
        kappa = float(np.interp(s, grid, self._course_curvature))
        beta = math.atan2(x[IX.Vy], x[IX.Vx])
        state = VehicleState(Vx=x[IX.Vx], Vy=x[IX.Vy], r=x[IX.r],
                             omega=x[IX.omega], dFz=x[IX.dFz],
                             theta_r=x[IX.theta], e=0.0, s=s, dpsi=-beta,
                             psi=x[IX.psi], X=x[IX.X], Y=x[IX.Y])
        inp = ControlInput(delta=x[IX.delta], Fxf=0.0, tau=x[IX.tau])
        return state, inp, kappa

    @cached_property
    def _chords(self):
        """(nodes, chords, squared chord lengths, chord tangents, s grid) of
        the centerline through the planned positions."""
        nodes = self.states[:, [IX.X, IX.Y]]
        chords = np.diff(nodes, axis=0)
        return (nodes, chords, (chords ** 2).sum(axis=1),
                np.arctan2(chords[:, 1], chords[:, 0]), self.s)

    def pose(self, s: float) -> tuple[float, float, float]:
        """Return (X, Y, chord tangent) at arc length s, clamped to the span."""
        nodes, chords, _, tangent, grid = self._chords
        s = min(max(s, grid[0]), grid[-1])
        i = max(int(np.searchsorted(grid, s)) - 1, 0)
        t = (s - grid[i]) / (grid[i + 1] - grid[i])
        x, y = nodes[i] + t * chords[i]
        return float(x), float(y), float(tangent[i])

    def project(self, X: float, Y: float, s_hint: float) -> tuple[float, float, float]:
        """Nearest foot over all chords, the first on a tie, whatever
        ``s_hint``; returns (s, e, chord tangent), e positive to the left.
        A foot at fraction t of the chord from node i is at
        ``s[i] + t (s[i+1] - s[i])``."""
        nodes, chords, len2, tangent, grid = self._chords
        p = np.array([X, Y])
        t = np.clip(((p - nodes[:-1]) * chords).sum(axis=1) / len2, 0.0, 1.0)
        feet = nodes[:-1] + t[:, None] * chords
        i = int(np.argmin(((p - feet) ** 2).sum(axis=1)))
        s = float(grid[i] + t[i] * (grid[i + 1] - grid[i]))
        tang = float(tangent[i])
        dx, dy = p - feet[i]
        return s, float(-math.sin(tang) * dx + math.cos(tang) * dy), tang


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def initial_guess(problem: TransitionProblem,
                  x_target: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Straight-line interpolation of the body states toward the target
    equilibrium, with the pose integrated from the interpolated rates, at
    a step duration of 45 ms."""
    h0 = 0.045
    N = problem.N
    x0 = problem.x_initial
    lam = np.linspace(0.0, 1.0, N + 1)
    X = np.empty((N + 1, IX.n))
    for j in (IX.Vx, IX.Vy, IX.r, IX.omega, IX.dFz, IX.delta, IX.tau, IX.theta):
        X[:, j] = x0[j] + lam * (x_target[j] - x0[j])
    # pose and distance by explicit integration of the interpolated motion
    psi = np.empty(N + 1)
    psi[0] = x0[IX.psi]
    Xp = np.empty(N + 1)
    Yp = np.empty(N + 1)
    sp = np.empty(N + 1)
    Xp[0], Yp[0], sp[0] = x0[IX.X], x0[IX.Y], x0[IX.s]
    for k in range(N):
        psi[k + 1] = psi[k] + h0 * X[k, IX.r]
        Xp[k + 1] = Xp[k] + h0 * (X[k, IX.Vx] * math.cos(psi[k])
                                  - X[k, IX.Vy] * math.sin(psi[k]))
        Yp[k + 1] = Yp[k] + h0 * (X[k, IX.Vx] * math.sin(psi[k])
                                  + X[k, IX.Vy] * math.cos(psi[k]))
        sp[k + 1] = sp[k] + h0 * math.hypot(X[k, IX.Vx], X[k, IX.Vy])
    X[:, IX.psi] = psi
    X[:, IX.X] = Xp
    X[:, IX.Y] = Yp
    X[:, IX.s] = sp
    U = np.diff(X[:, [IX.delta, IX.tau]], axis=0) / h0
    U[-1] = 0.0
    return X, U, h0


def _terminal_residual(problem: TransitionProblem, xN: np.ndarray) -> np.ndarray:
    V = math.hypot(xN[IX.Vx], xN[IX.Vy])
    beta = math.atan2(xN[IX.Vy], xN[IX.Vx])
    g = [xN[IX.r] - problem.kappa_final * V,
         beta - problem.beta_final]
    if problem.y_center_target is not None:
        chi = xN[IX.psi] + beta
        y_center = xN[IX.Y] + math.cos(chi) / problem.kappa_final
        g.append((y_center - problem.y_center_target) / 10.0)
    return np.array(g)


class _Transcription:
    """Scaled decision vector, constraints, cost, and FD Jacobians."""

    def __init__(self, problem: TransitionProblem):
        self.p = problem
        N = problem.N
        self.N = N
        self.nx = (N + 1) * IX.n
        self.nu = N * 2
        self.nz = self.nx + self.nu + 1
        self.ng = 2 + (1 if problem.y_center_target is not None else 0)
        self.nc = N * IX.n + self.ng

    # -- packing ----------------------------------------------------------
    def pack(self, X, U, h):
        return np.concatenate([(X / _X_SCALE).ravel(),
                               (U / _U_SCALE).ravel(),
                               [h / _H_SCALE]])

    def unpack(self, z):
        N = self.N
        X = z[:self.nx].reshape(N + 1, IX.n) * _X_SCALE
        U = z[self.nx:self.nx + self.nu].reshape(N, 2) * _U_SCALE
        h = float(z[-1]) * _H_SCALE
        return X, U, h

    def bounds(self):
        N, p = self.N, self.p
        lim = p.limits
        lb = np.full(self.nz, -np.inf)
        ub = np.full(self.nz, np.inf)
        Xl = np.full((N + 1, IX.n), -np.inf)
        Xu = np.full((N + 1, IX.n), np.inf)
        Xl[:, IX.Vx], Xu[:, IX.Vx] = 2.0, 30.0          # keep the model sane
        Xl[:, IX.omega], Xu[:, IX.omega] = 1.0, 400.0
        Xl[:, IX.theta], Xu[:, IX.theta] = ThermalParams.THETA_RANGE
        Xl[:, IX.delta], Xu[:, IX.delta] = lim.delta_min, lim.delta_max
        Xl[:, IX.tau], Xu[:, IX.tau] = lim.tau_min, lim.tau_max
        Xl[0], Xu[0] = p.x_initial, p.x_initial        # pinned initial state
        lb[:self.nx] = (Xl / _X_SCALE).ravel()
        ub[:self.nx] = (Xu / _X_SCALE).ravel()
        Ul = np.tile([lim.ddelta_min, lim.dtau_min], (N, 1))
        Uu = np.tile([lim.ddelta_max, lim.dtau_max], (N, 1))
        Ul[-1], Uu[-1] = 0.0, 0.0                      # zero slew at hand-off
        lb[self.nx:self.nx + self.nu] = (Ul / _U_SCALE).ravel()
        ub[self.nx:self.nx + self.nu] = (Uu / _U_SCALE).ravel()
        lb[-1], ub[-1] = p.h_min / _H_SCALE, p.h_max / _H_SCALE
        return lb, ub

    # -- cost -------------------------------------------------------------
    def cost_terms(self, X, U):
        """(input cost, transition-distance cost) of states X and inputs U."""
        input_cost = float(self.p.k_ddelta * (U[:, 0] ** 2).sum()
                           + self.p.k_dtau * (U[:, 1] ** 2).sum())
        dist = X[-1, IX.s] - self.p.x_initial[IX.s]
        return input_cost, float(self.p.k_s * dist ** 2)

    def cost(self, z):
        X, U, h = self.unpack(z)
        input_cost, distance_cost = self.cost_terms(X, U)
        return input_cost + distance_cost

    def cost_grad(self, z):
        X, U, h = self.unpack(z)
        g = np.zeros(self.nz)
        gU = np.column_stack([2.0 * self.p.k_ddelta * U[:, 0],
                              2.0 * self.p.k_dtau * U[:, 1]]) * _U_SCALE
        g[self.nx:self.nx + self.nu] = gU.ravel()
        dist = X[-1, IX.s] - self.p.x_initial[IX.s]
        g[self.nx - IX.n + IX.s] = 2.0 * self.p.k_s * dist * _X_SCALE[IX.s]
        return g

    def cost_hess(self):
        """Diagonal of the exact (constant) Hessian of the quadratic cost."""
        d = np.zeros(self.nz)
        d[self.nx:self.nx + self.nu] = np.tile(
            [2.0 * self.p.k_ddelta * _U_SCALE[0] ** 2,
             2.0 * self.p.k_dtau * _U_SCALE[1] ** 2], self.N)
        d[self.nx - IX.n + IX.s] = 2.0 * self.p.k_s * _X_SCALE[IX.s] ** 2
        return d

    # -- constraints ------------------------------------------------------
    def steps(self, X, U, h, offsets):
        """The RK4 step of every stage under each row of the ``(M, 15)``
        ``offsets``, components first: ``(12, N, M)``.  Row m moves each
        stage's 12 states, 2 inputs and h, in physical units.  The stages
        are stepped in the fewest blocks of whole stages that keep each
        within ``_STEP_LANES`` lanes, all but the last of one size (one
        stage a block if M alone exceeds it)."""
        N, M = self.N, offsets.shape[0]
        o = offsets.T[:, None, :]
        x = np.ascontiguousarray(X[:-1].T)[:, :, None]
        u = np.ascontiguousarray(U.T)[:, :, None]
        hb = h + offsets[:, -1]
        fit = max(_STEP_LANES // M, 1)     # stages that fit the budget
        block = math.ceil(N / math.ceil(N / fit))

        def step(k):
            return _rk4_batch(self.p.params, x[:, k:k + block] + o[:IX.n],
                              u[:, k:k + block] + o[IX.n:-1], hb)

        if block == N:
            return step(0)
        out = np.empty((IX.n, N, M))
        for k in range(0, N, block):
            out[:, k:k + block] = step(k)
        return out

    def constraints(self, z):
        X, U, h = self.unpack(z)
        phi = self.steps(X, U, h, _NO_OFFSET)[:, :, 0]
        defects = (X[1:] - phi.T) / _X_SCALE
        return np.concatenate([defects.ravel(),
                               _terminal_residual(self.p, X[-1])])

    def jacobian(self, z):
        """Sparse-structured FD Jacobian of the scaled constraints.

        Returns (D, E, Fh, G) with D[k] = d defect_k / d x_k (12x12),
        E[k] = d defect_k / d u_k (12x2), Fh[k] = d defect_k / dh (12,),
        G = d terminal / d x_N (ng x 12); the x_{k+1} block is the identity.
        """
        X, U, h = self.unpack(z)
        eps = 1e-6
        n = _STAGE_SCALE.size
        step = np.eye(n) * eps * _STAGE_SCALE
        phi = self.steps(X, U, h, np.concatenate([step, -step]))
        phi = phi / _X_SCALE[:, None, None]
        d = (-(phi[:, :, :n] - phi[:, :, n:]) / (2.0 * eps)).transpose(1, 0, 2)
        D, E, Fh = d[:, :, :IX.n], d[:, :, IX.n:-1], d[:, :, -1]
        xN = X[-1]
        # the scaled perturbation makes these scaled-coordinate columns
        G = np.column_stack([_terminal_residual(self.p, xN + o)
                             - _terminal_residual(self.p, xN - o)
                             for o in step[:IX.n, :IX.n]]) / (2.0 * eps)
        return D, E, Fh, G

    def jac_pattern(self):
        """(rows, cols) of the constraint Jacobian entries, in the order of
        :meth:`jac_data`: the D, identity, E, Fh and G blocks."""
        N = self.N
        kk, ii, jj = np.indices((N, IX.n, IX.n))
        rows_D = (kk * IX.n + ii).ravel()
        cols_D = (kk * IX.n + jj).ravel()
        rows_I = np.arange(N * IX.n)
        cols_I = rows_I + IX.n
        kk, ii, jj = np.indices((N, IX.n, 2))
        rows_E = (kk * IX.n + ii).ravel()
        cols_E = (self.nx + kk * 2 + jj).ravel()
        rows_h = np.arange(N * IX.n)
        cols_h = np.full(N * IX.n, self.nz - 1)
        rows_G = np.repeat(N * IX.n + np.arange(self.ng), IX.n)
        cols_G = np.tile(self.nx - IX.n + np.arange(IX.n), self.ng)
        return (np.concatenate([rows_D, rows_I, rows_E, rows_h, rows_G]),
                np.concatenate([cols_D, cols_I, cols_E, cols_h, cols_G]))

    def jac_data(self, jac):
        """Values of the Jacobian entries listed by :meth:`jac_pattern`."""
        D, E, Fh, G = jac
        return np.concatenate([D.ravel(), np.ones(self.N * IX.n), E.ravel(),
                               Fh.ravel(), G.ravel()])

    def hessian_pattern(self):
        """z indices of the Lagrangian Hessian blocks: (N, 12) per stage
        (the curved states of x_k, then u_k, then h) and (12,) for x_N."""
        k = np.arange(self.N)[:, None]
        stage = np.concatenate([k * IX.n + _CURVED,
                                self.nx + 2 * k + np.arange(2),
                                np.full((self.N, 1), self.nz - 1)], axis=1)
        return stage, self.nx - IX.n + np.arange(IX.n)

    def lagrangian_hessian(self, z, lam):
        """Finite-difference Hessian blocks of lam . constraints(z).

        Returns the (N, 12, 12) stage blocks over the variables listed by
        :meth:`hessian_pattern` and the (12, 12) terminal block over x_N,
        all in scaled coordinates, from :func:`_second_stencil` with a step
        of 1e-4.  X, Y and s enter the RK4 step linearly, so they have no
        stage block rows.
        """
        X, U, h = self.unpack(z)
        N = self.N
        eps = 1e-4
        cols = np.concatenate([_CURVED, IX.n + np.arange(3)])
        stencil = _second_stencil(cols.size, eps)
        offsets = np.zeros((stencil.shape[0], _STAGE_SCALE.size))
        offsets[:, cols] = stencil
        # contiguous in (k, m, i) order: einsum's order of summation over i
        # depends on the memory layout
        phi = np.ascontiguousarray(self.steps(
            X, U, h, offsets * _STAGE_SCALE).transpose(1, 2, 0)) / _X_SCALE
        psi = -np.einsum("kmi,ki->km", phi, lam[:N * IX.n].reshape(N, IX.n))
        H = _second_differences(psi, cols.size, eps, larger_first=False)

        xN = X[-1]
        nu_g = lam[N * IX.n:]
        g = np.array([nu_g @ _terminal_residual(self.p, xN + o)
                      for o in _second_stencil(IX.n, eps) * _X_SCALE])
        return H, _second_differences(g, IX.n, eps, larger_first=True)

    def jac_t_vec(self, jac, v):
        """J^T v without forming J; v has one entry per scaled constraint."""
        D, E, Fh, G = jac
        N = self.N
        vd = v[:N * IX.n].reshape(N, IX.n)
        vg = v[N * IX.n:]
        out = np.zeros(self.nz)
        xpart = out[:self.nx].reshape(N + 1, IX.n)
        xpart[:-1] += np.einsum("kij,ki->kj", D, vd)
        xpart[1:] += vd  # identity blocks
        xpart[-1] += G.T @ vg
        out[self.nx:self.nx + self.nu] = np.einsum("kij,ki->kj", E, vd).ravel()
        out[-1] = float((Fh * vd).sum())
        return out


# ---------------------------------------------------------------------------
# Newton equations: one banded LU per step
# ---------------------------------------------------------------------------

class _BandedKKT:
    """The Newton (KKT) equations of a transcription as one banded matrix.

        [ W  J^T ] [ dz  ]   [ r_z ]
        [ J   0  ] [ lam ] = [ r_c ]

    J is the scaled constraint Jacobian; W is a diagonal plus the stage
    blocks of :meth:`_Transcription.lagrangian_hessian`.  The unknowns are
    ordered stage by stage, [x_k, u_k, lam_k] for k < N and then
    [x_N, lam_terminal], so every entry lies within a few dozen places of the
    diagonal.  The pinned variables (x_0 and u_{N-1}, whose steps are zero)
    are left out, and the step length h, the one variable that couples every
    stage, is a border: the band factorization is reused for one extra
    back-solve with its column and a scalar Schur complement.
    """

    def __init__(self, tr: "_Transcription"):
        N, n, nz = tr.N, IX.n, tr.nz
        lb, ub = tr.bounds()
        self.nz, self.h = nz, nz - 1
        # sort key of every unknown of [z, lam]: x_k, u_k and lam_k get
        # 3k, 3k+1 and 3k+2 (h, key 0, is the border and not in the band)
        key = np.concatenate([
            3 * np.repeat(np.arange(N + 1), n),
            3 * np.repeat(np.arange(N), 2) + 1,
            [0],
            3 * np.repeat(np.arange(N), n) + 2,
            np.full(tr.ng, 3 * N + 1)])
        inband = np.concatenate([lb < ub, np.ones(tr.nc, dtype=bool)])
        inband[self.h] = False
        idx = np.flatnonzero(inband)
        self.order = idx[np.argsort(key[idx], kind="stable")]
        pos = np.full(inband.size, -1)
        pos[self.order] = np.arange(self.order.size)
        pos[self.h] = -2
        self.size = self.order.size
        self._jac_data = tr.jac_data

        # (row, col) of every matrix entry, in the order factor() lists their
        # values; repeated positions add up
        jr, jc = tr.jac_pattern()
        jr = jr + nz
        stage_idx, term_idx = tr.hessian_pattern()
        self._hess_shapes = (stage_idx.shape + stage_idx.shape[1:],
                             (term_idx.size, term_idx.size))
        sr = np.repeat(stage_idx, stage_idx.shape[1], axis=1).ravel()
        sc = np.tile(stage_idx, (1, stage_idx.shape[1])).ravel()
        rows = np.concatenate([jr, jc, np.arange(nz), sr,
                               np.repeat(term_idx, term_idx.size)])
        cols = np.concatenate([jc, jr, np.arange(nz), sc,
                               np.tile(term_idx, term_idx.size)])
        pr, pc = pos[rows], pos[cols]
        self._band = (pr >= 0) & (pc >= 0)
        r, c = pr[self._band], pc[self._band]
        self.kl = self.ku = int(np.max(np.abs(r - c)))
        self._ldab = 3 * self.kl + 1
        # LAPACK band storage (kl extra rows for the pivoting fill), column-major
        self._flat = (2 * self.kl + r - c) + c * self._ldab
        self._border = (pc == -2) & (pr >= 0)   # the h column
        self._border_rows = pr[self._border]
        self._corner = (pr == -2) & (pc == -2)

    def factor(self, jac, w: np.ndarray, hess=None) -> None:
        """Factor the KKT matrix for the Jacobian blocks ``jac``, the diagonal
        ``w`` (one entry per decision variable) and the optional Hessian
        blocks ``hess`` = (stage blocks, terminal block)."""
        jd = self._jac_data(jac)
        if hess is None:
            hess = tuple(np.zeros(shape) for shape in self._hess_shapes)
        data = np.concatenate([jd, jd, w, hess[0].ravel(), hess[1].ravel()])
        ab = np.bincount(self._flat, data[self._band],
                         minlength=self._ldab * self.size)
        ab = ab.reshape(self._ldab, self.size, order="F")
        self._lu, self._piv, info = scipy.linalg.lapack.dgbtrf(
            ab, self.kl, self.ku, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError("singular KKT matrix")
        self._b = np.bincount(self._border_rows, data[self._border],
                              minlength=self.size)
        self._yb = self._band_solve(self._b)
        self._schur = data[self._corner].sum() - self._b @ self._yb

    def _band_solve(self, rhs):
        x, _ = scipy.linalg.lapack.dgbtrs(self._lu, self.kl, self.ku, rhs,
                                          self._piv)
        return x

    def solve(self, r_z: np.ndarray, r_c: np.ndarray):
        """Return (dz, lam) for the right-hand sides of the last factor."""
        rhs = np.concatenate([r_z, r_c])
        y = self._band_solve(rhs[self.order])
        dh = (r_z[self.h] - self._b @ y) / self._schur
        out = np.zeros(rhs.size)
        out[self.order] = y - dh * self._yb
        out[self.h] = dh
        return out[:self.nz], out[self.nz:]


# ---------------------------------------------------------------------------
# primal-dual interior-point method
# ---------------------------------------------------------------------------

# Solver settings.  The decision variables are the scaled ones of
# _Transcription; the cost is scaled per solve (see _GRAD_MAX).
_IPM_MAX_ITER = 200     # iteration cap of the optimality phase
_IPM_TOL = 1e-6         # KKT error that ends it; the finite-difference
                        # derivatives put the attainable floor near 2e-7
_FEAS_MAX_ITER = 15     # iteration cap of the feasibility phase
_FEAS_TOL = 1e-6        # max scaled violation that ends it
_FEAS_MU = 1e-3         # its (fixed) barrier parameter
_POLISH_MAX_ITER = 10   # Gauss-Newton steps of the terminal polish
_MU_INIT = 0.01         # barrier parameter of the optimality phase ...
_MU_MIN = 1e-9          # ... falling as mu <- min(_MU_LINEAR mu, mu^_MU_POWER)
_MU_LINEAR = 0.2
_MU_POWER = 1.5
_KAPPA_EPS = 10.0       # ... once the barrier problem's error is below this * mu
_TAU_MIN = 0.99         # fraction-to-the-boundary rule
_BOUND_PUSH = 1e-2      # relative distance of the starting point from a bound
_GRAD_MAX = 100.0       # largest cost-gradient entry at the start, after scaling
_CURV_MIN = 1e-8        # least curvature along a step, relative to |dz|^2
_DELTA_MIN = 1e-6       # first primal regularization tried ...
_DELTA_MAX = 1e20       # ... and the largest
# filter line search (Waechter & Biegler 2006, with their constants)
_GAMMA_THETA = 1e-5
_GAMMA_PHI = 1e-5
_ETA_PHI = 1e-4
_DELTA_SW = 1.0
_S_THETA = 1.1
_S_PHI = 2.3
_GAMMA_ALPHA = 0.05
_SOC_MAX = 4
_KAPPA_SOC = 0.99


@dataclass
class _IpmResult:
    z: np.ndarray
    lam: np.ndarray         # multipliers of the scaled constraints
    zl: np.ndarray          # duals of the finite lower bounds of free variables
    zu: np.ndarray          # duals of the finite upper bounds
    iterations: int
    converged: bool


def _project_psd(B):
    """Nearest positive semidefinite matrices of a stack of symmetric ones."""
    vals, vecs = np.linalg.eigh(B)
    return np.einsum("...ij,...j,...kj->...ik", vecs, np.maximum(vals, 0.0),
                     vecs)


def _max_step(v, dv, tau):
    """Largest alpha in (0, 1] with v + alpha dv >= (1 - tau) v (v > 0)."""
    neg = dv < 0.0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, np.min(-tau * v[neg] / dv[neg])))


def _interior_point(tr: "_Transcription", z: np.ndarray,
                    feasibility: bool = False) -> _IpmResult:
    """Primal-dual interior-point method on the transcription.

    With ``feasibility`` the cost is dropped, the barrier parameter stays at
    ``_FEAS_MU`` and the Newton matrix has no constraint curvature
    (Gauss-Newton): the iterates move onto the constraints while keeping
    off the bounds, until the violation is below ``_FEAS_TOL`` or for
    ``_FEAS_MAX_ITER`` iterations.  Otherwise
    the Newton matrix carries the finite-difference Lagrangian Hessian;
    where that gives negative curvature along the step, its stage blocks are
    projected onto the positive semidefinite cone, and then a multiple of
    the identity is added until the curvature is positive.  Steps are
    accepted by a filter line search with second-order corrections.
    """
    max_iter = _FEAS_MAX_ITER if feasibility else _IPM_MAX_ITER
    lb, ub = tr.bounds()
    free = lb < ub
    il = np.flatnonzero(free & np.isfinite(lb))
    iu = np.flatnonzero(free & np.isfinite(ub))
    z = np.where(free, z, lb)
    z[il] = np.maximum(z[il], lb[il] + np.minimum(
        _BOUND_PUSH * np.maximum(1.0, np.abs(lb[il])),
        _BOUND_PUSH * (ub[il] - lb[il])))
    z[iu] = np.minimum(z[iu], ub[iu] - np.minimum(
        _BOUND_PUSH * np.maximum(1.0, np.abs(ub[iu])),
        _BOUND_PUSH * (ub[iu] - lb[iu])))

    kkt = _BandedKKT(tr)
    stage_idx, term_idx = tr.hessian_pattern()
    if feasibility:
        cs = 0.0
        mu = _FEAS_MU
    else:
        cs = min(1.0, _GRAD_MAX / max(1e-300, np.max(np.abs(tr.cost_grad(z)))))
        mu = _MU_INIT
    hess = cs * tr.cost_hess()

    def slacks(zz):
        return zz[il] - lb[il], ub[iu] - zz[iu]

    def barrier(zz):
        s_l, s_u = slacks(zz)
        if np.any(s_l <= 0.0) or np.any(s_u <= 0.0):
            return np.inf
        return cs * tr.cost(zz) - mu * (np.log(s_l).sum() + np.log(s_u).sum())

    sl, su = slacks(z)
    zl, zu = mu / sl, mu / su
    c = tr.constraints(z)
    jac = tr.jacobian(z)
    lam = np.zeros(tr.nc)
    if not feasibility:
        # least-squares multiplier estimate; starting from zero instead
        # leads the criterion-6 solve to another local optimum (J 678090)
        kkt.factor(jac, free.astype(float))
        r0 = -cs * tr.cost_grad(z)
        r0[il] += zl
        r0[iu] -= zu
        lam = kkt.solve(r0, np.zeros(tr.nc))[1]

    theta = np.abs(c).sum()
    theta_max = 1e4 * max(1.0, theta)
    theta_min = 1e-4 * max(1.0, theta)
    filt = []
    delta_last = 0.0
    converged = False
    it = 0
    for it in range(max_iter + 1):
        if it > 0:
            jac = tr.jacobian(z)
        g = cs * tr.cost_grad(z)
        rd = g + tr.jac_t_vec(jac, lam)
        rd[il] -= zl
        rd[iu] += zu
        viol = np.max(np.abs(c))
        err_pd = max(np.max(np.abs(rd[free])), viol)

        def kkt_error(m):
            return max(err_pd, np.max(np.abs(sl * zl - m)),
                       np.max(np.abs(su * zu - m)))

        if (viol <= _FEAS_TOL) if feasibility else (kkt_error(0.0) <= _IPM_TOL):
            converged = True
            break
        if it == max_iter:
            break
        while not feasibility and mu > _MU_MIN and \
                kkt_error(mu) <= _KAPPA_EPS * mu:
            mu = max(_MU_MIN, min(_MU_LINEAR * mu, mu ** _MU_POWER))
            filt = []

        # Newton step of the barrier problem, with curvature control
        w = hess.copy()
        w[il] += zl / sl
        w[iu] += zu / su
        r_z = -g
        r_z[il] += mu / sl
        r_z[iu] -= mu / su

        def newton(delta, hl):
            """(dz, lam_plus), or None without enough curvature along dz."""
            w_reg = w + delta * free
            try:
                kkt.factor(jac, w_reg, hl)
            except np.linalg.LinAlgError:
                return None
            dz, lam_plus = kkt.solve(r_z, -c)
            curv = dz @ (w_reg * dz)
            if hl is not None:
                v = dz[stage_idx]
                curv += np.einsum("ki,kij,kj->", v, hl[0], v)
                v = dz[term_idx]
                curv += v @ hl[1] @ v
            return (dz, lam_plus) if curv >= _CURV_MIN * (dz @ dz) else None

        hl = None if feasibility else tr.lagrangian_hessian(z, lam)
        step = newton(0.0, hl)
        if step is None and hl is not None:
            hl = tuple(_project_psd(b) for b in hl)
            step = newton(0.0, hl)
        delta = max(_DELTA_MIN, delta_last / 3.0)
        while step is None:
            if delta > _DELTA_MAX:
                raise ConvergenceError("interior-point Newton matrix stays "
                                       "singular under regularization")
            step = newton(delta, hl)
            delta_last = delta
            delta *= 8.0
        dz, lam_plus = step
        dzl = mu / sl - zl - zl / sl * dz[il]
        dzu = mu / su - zu + zu / su * dz[iu]
        tau = max(_TAU_MIN, 1.0 - mu)
        s_all = np.concatenate([sl, su])
        a_max = _max_step(s_all, np.concatenate([dz[il], -dz[iu]]), tau)
        a_dual = _max_step(np.concatenate([zl, zu]),
                           np.concatenate([dzl, dzu]), tau)

        # filter line search
        phi = barrier(z)
        gphi = -(r_z @ dz)          # directional derivative of the barrier
        if gphi < 0.0:
            a_min = _GAMMA_ALPHA * min(
                _GAMMA_THETA, _GAMMA_PHI * theta / -gphi,
                _DELTA_SW * theta ** _S_THETA / (-gphi) ** _S_PHI)
        else:
            a_min = _GAMMA_ALPHA * _GAMMA_THETA

        def acceptable(z_t, c_t, alpha):
            """None, or whether the accepted trial point is an f-step."""
            th_t = np.abs(c_t).sum()
            ph_t = barrier(z_t)
            if not np.isfinite(ph_t) or th_t > theta_max or any(
                    th_t >= th_f and ph_t >= ph_f for th_f, ph_f in filt):
                return None
            if gphi < 0.0 and theta <= theta_min and \
                    alpha * (-gphi) ** _S_PHI > _DELTA_SW * theta ** _S_THETA:
                return True if ph_t <= phi + _ETA_PHI * alpha * gphi else None
            if th_t <= (1.0 - _GAMMA_THETA) * theta or \
                    ph_t <= phi - _GAMMA_PHI * theta:
                return False
            return None

        alpha = a_max
        z_t = z + alpha * dz
        c_t = tr.constraints(z_t)
        f_step = acceptable(z_t, c_t, alpha)
        if f_step is None and np.abs(c_t).sum() >= theta:
            # second-order corrections against the constraint curvature (they
            # save about a fifth of the criterion-6 iterations and half of
            # the figure-8 ones at its default arc)
            c_soc, th_old = alpha * c + c_t, theta
            for _ in range(_SOC_MAX):
                d_soc = kkt.solve(r_z, -c_soc)[0]
                a_soc = _max_step(s_all, np.concatenate([d_soc[il],
                                                         -d_soc[iu]]), tau)
                z_s = z + a_soc * d_soc
                c_s = tr.constraints(z_s)
                f_step = acceptable(z_s, c_s, alpha)
                th_s = np.abs(c_s).sum()
                if f_step is not None:
                    z_t, c_t = z_s, c_s
                    break
                if th_s > _KAPPA_SOC * th_old:
                    break
                c_soc, th_old = a_soc * c_soc + c_s, th_s
        while f_step is None and alpha >= a_min:
            alpha *= 0.5
            z_t = z + alpha * dz
            c_t = tr.constraints(z_t)
            f_step = acceptable(z_t, c_t, alpha)
        if f_step is None:
            # nothing acceptable: take the shortest step, start a new filter
            filt = []
        elif not f_step:
            filt.append(((1.0 - _GAMMA_THETA) * theta,
                         phi - _GAMMA_PHI * theta))
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("ipm %3d  cost %.6e  viol %.2e  err %.2e  mu %.1e  "
                       "alpha %.2e", it, tr.cost(z), viol, err_pd, mu, alpha)

        z, c = z_t, c_t
        theta = np.abs(c).sum()
        lam = lam + alpha * (lam_plus - lam)
        sl, su = slacks(z)
        zl = zl + a_dual * dzl
        zu = zu + a_dual * dzu
    return _IpmResult(z=z, lam=lam, zl=zl, zu=zu, iterations=it,
                      converged=converged)


def solve_transition(problem: TransitionProblem, guess) -> DynamicTrajectory:
    """Solve the transition problem from ``guess`` (see :func:`initial_guess`);
    see the module docstring for the method."""
    tr = _Transcription(problem)
    X0, U0, h0 = guess
    z = tr.pack(np.asarray(X0, float), np.asarray(U0, float), float(h0))
    feasible = _interior_point(tr, z, feasibility=True)
    res = _interior_point(tr, feasible.z)
    if not res.converged:
        _log.warning("transition solve stopped at the %d-iteration cap",
                     _IPM_MAX_ITER)
    z = res.z
    viol = float(np.max(np.abs(tr.constraints(z))))
    if viol > 2e-3:
        raise ConvergenceError(
            f"transition solve stalled with constraint violation {viol:.2e} "
            f"after {res.iterations} interior-point iterations")

    _, U, h = tr.unpack(z)
    try:
        states, U, h = _polish(tr, U, h)
    except ModelDomainError as exc:
        raise ConvergenceError(
            f"transition rollout left the model domain after "
            f"{res.iterations} interior-point iterations: {exc}") from exc
    term = _terminal_residual(problem, states[-1])
    phi = tr.steps(states, U, h, _NO_OFFSET)[:, :, 0]
    defect = np.max(np.abs((states[1:] - phi.T) / _X_SCALE))
    _check_limits(problem, states, U)

    input_cost, distance_cost = tr.cost_terms(states, U)
    if float(np.max(np.abs(term))) > 1e-6:
        raise ConvergenceError(
            f"terminal conditions not met: residual {np.max(np.abs(term)):.2e}")
    return DynamicTrajectory(
        t=h * np.arange(problem.N + 1),
        states=states, inputs=U, h=h,
        J=input_cost + distance_cost,
        input_cost=input_cost, distance_cost=distance_cost,
        terminal_residual=float(np.max(np.abs(term))),
        max_defect=float(defect),
        n_outer=feasible.iterations + res.iterations)


def _check_limits(problem, states, U):
    lim = problem.limits
    tol = 1e-8
    checks = [
        ("delta", states[:, IX.delta], lim.delta_min, lim.delta_max),
        ("tau", states[:, IX.tau], lim.tau_min, lim.tau_max),
        ("ddelta", U[:, 0], lim.ddelta_min, lim.ddelta_max),
        ("dtau", U[:, 1], lim.dtau_min, lim.dtau_max),
    ]
    for name, vals, lo, hi in checks:
        if np.min(vals) < lo - tol or np.max(vals) > hi + tol:
            raise InfeasibleError(
                f"optimized trajectory violates the {name} bound "
                f"([{np.min(vals):.4g}, {np.max(vals):.4g}] vs [{lo:.4g}, {hi:.4g}])")


def _polish(tr: _Transcription, U, h):
    """Gauss-Newton on the terminal conditions of the exact rollout.

    Each iteration re-integrates (U, h) from the initial state with
    :func:`rk4_step` and, while the terminal residual is above machine
    level, takes the least-norm correction of the scaled inputs and step
    duration that zeroes the linearized constraints there: the Newton
    equations of the transcription with unit weight on u and h and none on
    the states, clipped to the box.  Returns the last rollout's states with
    its inputs and step duration.
    """
    p = tr.p
    lb, ub = tr.bounds()
    kkt = _BandedKKT(tr)
    w = np.zeros(tr.nz)
    w[tr.nx:] = 1.0
    for it in range(_POLISH_MAX_ITER + 1):
        X = np.empty((tr.N + 1, IX.n))
        X[0] = p.x_initial
        for k in range(tr.N):
            X[k + 1] = rk4_step(p.params, X[k], U[k], h)
        z = tr.pack(X, U, h)
        c = tr.constraints(z)
        if it == _POLISH_MAX_ITER or np.max(np.abs(c[-tr.ng:])) < 1e-11:
            return X, U, h
        kkt.factor(tr.jacobian(z), w)
        _, U, h = tr.unpack(np.clip(z + kkt.solve(np.zeros(tr.nz), -c)[0],
                                    lb, ub))
