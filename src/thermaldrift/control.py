"""Trajectory linearization, LQR gains, and the arc-length gain schedule.

The tracking model has six states [Vx, Vy, r, omega, dpsi, e] measured as
deviations from the reference node, and three inputs [delta, Fxf, tau].  The
body rows of the system matrices come from central finite differences of the
nonlinear dynamics with the tread temperature and weight transfer frozen at
the node; the two path rows are analytic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ScheduleError, SolverError
from .model import ControlInput, VehicleState, vehicle_derivatives
from .params import ParamSet

__all__ = [
    "OperatingPoint",
    "LinearizedSystem",
    "LqrWeights",
    "LqrStack",
    "GainSchedule",
    "linearize",
    "linearize_stack",
    "operating_points",
    "lqr_gain",
    "lqr_gains",
    "build_schedule",
    "lookup",
    "closed_loop_poles",
    "spectral_abscissa",
    "REF_STATE_FIELDS",
]

_log = logging.getLogger(__name__)

#: largest accepted Riccati residual norm relative to max(1, |P|)
_RESIDUAL_TOL = 1e-8

#: column layout of a reference-state row in schedules and CSV files
REF_STATE_FIELDS = ("Vx", "Vy", "r", "omega", "dFz", "theta_r",
                    "e", "s", "dpsi", "X", "Y", "psi")


@dataclass(frozen=True)
class OperatingPoint:
    state: VehicleState
    input: ControlInput
    kappa: float

    def ref_state_row(self) -> np.ndarray:
        st = self.state
        return np.array([getattr(st, name) for name in REF_STATE_FIELDS])

    def ref_input_row(self) -> np.ndarray:
        return np.array([self.input.delta, self.input.Fxf, self.input.tau])


@dataclass(frozen=True)
class LinearizedSystem:
    A: np.ndarray  # (6, 6)
    B: np.ndarray  # (6, 3)
    op: OperatingPoint


def _fd_step(value: float) -> float:
    return 1e-6 * max(1.0, abs(value))


def linearize(params: ParamSet, op: OperatingPoint) -> LinearizedSystem:
    """System matrices about a trajectory node.

    Temperature and weight transfer are frozen parameters here (the tracking
    state excludes them); their variation enters through gain scheduling.
    """
    st, u = op.state, op.input

    def body_rates(Vx, Vy, r, omega, delta, Fxf, tau):
        state = st.replace(Vx=Vx, Vy=Vy, r=r, omega=omega)
        rates = vehicle_derivatives(params, state,
                                    ControlInput(delta=delta, Fxf=Fxf, tau=tau),
                                    kappa=op.kappa)
        return np.array([rates.Vx, rates.Vy, rates.r, rates.omega])

    x0 = [st.Vx, st.Vy, st.r, st.omega]
    u0 = [u.delta, u.Fxf, u.tau]

    A = np.zeros((6, 6))
    B = np.zeros((6, 3))
    for j in range(4):
        h = _fd_step(x0[j])
        xp, xm = list(x0), list(x0)
        xp[j] += h
        xm[j] -= h
        A[:4, j] = (body_rates(*xp, *u0) - body_rates(*xm, *u0)) / (2.0 * h)
    for j in range(3):
        h = _fd_step(u0[j])
        up, um = list(u0), list(u0)
        up[j] += h
        um[j] -= h
        B[:4, j] = (body_rates(*x0, *up) - body_rates(*x0, *um)) / (2.0 * h)

    # analytic path rows, evaluated at e_ref = 0
    S, C = math.sin(st.dpsi), math.cos(st.dpsi)
    k = op.kappa
    Vx, Vy = st.Vx, st.Vy
    A[4] = [-k * C, k * S, 1.0, 0.0,
            k * (Vx * S + Vy * C), -k * k * (Vx * C - Vy * S)]
    A[5] = [S, C, 0.0, 0.0, Vx * C - Vy * S, 0.0]
    return LinearizedSystem(A=A, B=B, op=op)


def operating_points(ref, s_knots) -> list[OperatingPoint]:
    """The reference ``ref`` (``sample(s)``) at every knot."""
    return [OperatingPoint(*ref.sample(float(s))) for s in s_knots]


def linearize_stack(params: ParamSet, ops) -> tuple[np.ndarray, np.ndarray]:
    """:func:`linearize` at every operating point, stacked into (n, 6, 6) A
    and (n, 6, 3) B for batched linear algebra."""
    A = np.empty((len(ops), 6, 6))
    B = np.empty((len(ops), 6, 3))
    for i, op in enumerate(ops):
        sys = linearize(params, op)
        A[i], B[i] = sys.A, sys.B
    return A, B


@dataclass(frozen=True)
class LqrWeights:
    """Diagonal LQR cost matrices, parameterized as inverse-square scales."""

    Q_diag: np.ndarray = field(default_factory=lambda: np.array([
        0.5 ** -2,                  # longitudinal velocity, (m/s)^-2
        1.0 ** -2,                  # lateral velocity, (m/s)^-2
        0.6 ** -2,                  # yaw rate, (rad/s)^-2
        10.0 ** -2,                 # wheel speed, (rad/s)^-2
        math.radians(10.0) ** -2,   # heading error, rad^-2
        0.2 ** -2,                  # lateral error, m^-2
    ]))
    R_diag: np.ndarray = field(default_factory=lambda: np.array([
        math.radians(2.0) ** -2,    # steering angle, rad^-2
        500.0 ** -2,                # front braking force, N^-2
        500.0 ** -2,                # rear torque, (N m)^-2
    ]))

    def __post_init__(self):
        if np.any(np.asarray(self.Q_diag) < 0.0):
            raise ValueError("state weights must be non-negative")
        if np.any(np.asarray(self.R_diag) <= 0.0):
            raise ValueError("input weights must be positive")

    @classmethod
    def tracking(cls) -> "LqrWeights":
        """Stiffer lateral-tracking preset (e scale 0.05 m, heading 5 deg).

        The default weights leave ~0.1 m of lateral lag while the tread heats
        up quickly from a cold start and the reference equilibrium moves;
        this preset tightens the path-error channels for runs where that
        transient matters.  Input weights are unchanged.
        """
        Q = np.array([0.5 ** -2, 1.0 ** -2, 0.6 ** -2, 10.0 ** -2,
                      math.radians(5.0) ** -2, 0.05 ** -2])
        return cls(Q_diag=Q)

    @property
    def Q(self) -> np.ndarray:
        return np.diag(self.Q_diag)

    @property
    def R(self) -> np.ndarray:
        return np.diag(self.R_diag)


def spectral_abscissa(M: np.ndarray) -> float:
    return float(np.max(np.real(np.linalg.eigvals(M))))


def closed_loop_poles(A: np.ndarray, B: np.ndarray, K: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(A - B @ K)


def lqr_gain(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
             R: np.ndarray) -> np.ndarray:
    """Continuous-time infinite-horizon LQR gain via the algebraic Riccati
    equation; the returned K strictly stabilizes (A, B)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    try:
        P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"Riccati solve failed: {exc}") from exc
    K = np.linalg.solve(R, B.T @ P)
    residual = A.T @ P + P @ A - P @ B @ K + Q
    scale = max(1.0, float(np.linalg.norm(P)))
    if np.linalg.norm(residual) / scale > _RESIDUAL_TOL:
        raise SolverError(
            f"Riccati residual {np.linalg.norm(residual):.2e} above tolerance")
    if spectral_abscissa(A - B @ K) >= 0.0:
        raise SolverError("LQR gain does not stabilize the linearization")
    return K


@dataclass(frozen=True)
class LqrStack:
    """LQR solutions for a stack of linearizations, with lqr_gain's checks."""

    K: np.ndarray         # (n, m, nx)
    P: np.ndarray         # (n, nx, nx) Riccati solutions
    residual: np.ndarray  # (n,) Riccati residual norm / max(1, |P|)
    abscissa: np.ndarray  # (n,) spectral abscissa of A - B K
    ok: np.ndarray        # (n,) bool: both checks pass


def lqr_gains(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
              R: np.ndarray) -> LqrStack:
    """:func:`lqr_gain` for stacked (n, nx, nx) ``A`` and (n, nx, m) ``B``.

    Each knot's Riccati solution spans the stable invariant subspace of its
    Hamiltonian [[A, -B R^-1 B^T], [-Q, -A^T]] (Laub 1979): with [U1; U2] the
    eigenvectors of its nx stable eigenvalues, P = Re(U2 U1^-1).  One
    ``eig`` call covers the whole stack.  Nothing is raised for a bad knot;
    ``ok`` is False where lqr_gain's residual or stability check fails, and
    those knots need the scalar solver.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    nx = A.shape[-1]
    AT, BT = np.swapaxes(A, 1, 2), np.swapaxes(B, 1, 2)
    H = np.block([[A, -B @ np.linalg.solve(R, BT)],
                  [np.broadcast_to(-Q, A.shape), -AT]])
    w, V = np.linalg.eig(H)
    stable = np.argsort(w.real, axis=1)[:, None, :nx]
    U = np.take_along_axis(V, stable, axis=2)
    U1, U2 = U[:, :nx], U[:, nx:]
    # the scalar solver's singularity test on U1 (scipy's 1/cond < eps)
    bad = ~(np.linalg.cond(U1) < 1.0 / np.finfo(float).eps)
    U1[bad] = np.eye(nx)
    # P = U2 U1^-1, solved as U1^T P^T = U2^T
    P = np.swapaxes(np.linalg.solve(np.swapaxes(U1, 1, 2),
                                    np.swapaxes(U2, 1, 2)), 1, 2).real
    P = 0.5 * (P + np.swapaxes(P, 1, 2))
    K = np.linalg.solve(R, BT @ P)
    resid = AT @ P + P @ A - P @ B @ K + Q
    residual = (np.linalg.norm(resid, axis=(1, 2))
                / np.maximum(1.0, np.linalg.norm(P, axis=(1, 2))))
    residual[bad] = np.inf
    abscissa = np.max(np.linalg.eigvals(A - B @ K).real, axis=1)
    ok = (residual <= _RESIDUAL_TOL) & (abscissa < 0.0)
    return LqrStack(K=K, P=P, residual=residual, abscissa=abscissa, ok=ok)


@dataclass(frozen=True)
class GainSchedule:
    """Arc-length-indexed feedback gains with their reference points."""

    s_knots: np.ndarray     # (n,) strictly increasing
    K: np.ndarray           # (n, 3, 6)
    ref_states: np.ndarray  # (n, 12), REF_STATE_FIELDS layout
    ref_inputs: np.ndarray  # (n, 3) [delta, Fxf, tau]
    kappa: np.ndarray       # (n,)
    theta: np.ndarray       # (n,) tread temperature at the node, degC

    def __post_init__(self):
        if len(self.s_knots) == 0:
            raise ScheduleError("empty gain schedule")
        if np.any(np.diff(self.s_knots) <= 0.0):
            raise ScheduleError("schedule knots must be strictly increasing")

    def __len__(self) -> int:
        return len(self.s_knots)


def lookup(schedule: GainSchedule, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Nearest-knot lookup; ties break toward the smaller knot and s outside
    the knot range clamps to the nearest end.

    Returns (K, ref_state_row, ref_input_row, knot_index).
    """
    knots = schedule.s_knots
    i = int(np.searchsorted(knots, s))
    if i <= 0:
        idx = 0
    elif i >= len(knots):
        idx = len(knots) - 1
    else:
        idx = i - 1 if s - knots[i - 1] <= knots[i] - s else i
    return schedule.K[idx], schedule.ref_states[idx], schedule.ref_inputs[idx], idx


def build_schedule(params: ParamSet, traj, weights: LqrWeights | None = None,
                   spacing: float = 0.25) -> GainSchedule:
    """Linearize and solve the LQR problem at every ``spacing`` meters.

    ``traj`` must provide ``s_span()`` and ``sample(s)`` (the three
    reference types ``QuasiSteadyTrajectory``, ``DynamicTrajectory`` and
    ``Figure8Plan`` do).  All knots are solved in one :func:`lqr_gains`
    call; a knot that fails its checks there is solved again by
    :func:`lqr_gain`.
    """
    weights = weights or LqrWeights()
    s_lo, s_hi = traj.s_span()
    n = max(int(math.floor((s_hi - s_lo) / spacing + 1e-9)) + 1, 1)
    knots = s_lo + spacing * np.arange(n)

    ops = operating_points(traj, knots)
    A, B = linearize_stack(params, ops)
    sol = lqr_gains(A, B, weights.Q, weights.R)
    K_all = sol.K
    fallback = np.flatnonzero(~sol.ok)
    for i in fallback:
        try:
            K_all[i] = lqr_gain(A[i], B[i], weights.Q, weights.R)
        except SolverError as exc:
            raise ScheduleError(
                f"gain design failed at s={knots[i]:.2f} m: {exc}") from exc
    # maxima over the batch-solved knots; the fallback knots passed the same
    # checks inside lqr_gain
    _log.debug("gain schedule: %d knots, max Riccati residual %.3e, "
               "max closed-loop spectral abscissa %.4f, %d scipy fallbacks",
               n, np.max(sol.residual, where=sol.ok, initial=0.0),
               np.max(sol.abscissa, where=sol.ok, initial=-np.inf),
               len(fallback))
    return GainSchedule(
        s_knots=knots, K=K_all,
        ref_states=np.array([op.ref_state_row() for op in ops], dtype=float),
        ref_inputs=np.array([op.ref_input_row() for op in ops], dtype=float),
        kappa=np.array([op.kappa for op in ops], dtype=float),
        theta=np.array([op.state.theta_r for op in ops], dtype=float))
