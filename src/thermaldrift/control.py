"""Trajectory linearization, LQR gains, and the arc-length gain schedule.

The tracking model has six states [Vx, Vy, r, omega, dpsi, e] measured as
deviations from the reference node, and three inputs [delta, Fxf, tau].  The
body rows of the system matrices come from central finite differences of the
nonlinear dynamics with the tread temperature and weight transfer frozen at
the node; the two path rows are analytic.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, SolverError
from .integrate import central_differences
from .model import (
    ControlInput,
    VehicleState,
    scalar_rates,
    vehicle_derivatives,  # noqa: F401  kept: perfbench/layers.py wraps control.vehicle_derivatives
)
from .params import ParamSet

__all__ = [
    "LQR_Q",
    "LQR_R",
    "LqrStack",
    "GainSchedule",
    "linearize",
    "linearize_stack",
    "lqr_gain",
    "lqr_gains",
    "build_schedule",
    "schedule_knots",
    "nearest_knot",
    "spectral_abscissa",
]

_log = logging.getLogger(__name__)

#: largest accepted Riccati residual norm relative to max(1, |P|)
_RESIDUAL_TOL = 1e-8

#: arc-length distance between gain-schedule knots, m
_KNOT_SPACING = 0.25


def linearize(params: ParamSet, state: VehicleState, inp: ControlInput,
              kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """System matrices (A, B) about a trajectory node, the (state, input,
    curvature) triple a reference's ``sample(s)`` returns.

    Temperature and weight transfer are frozen parameters here (the tracking
    state excludes them); their variation enters through gain scheduling.
    The body rows read only the body rates of :func:`scalar_rates`, so the
    path rates and their singularity check at 1 - kappa*e = 0 are never
    evaluated (every reference rides its path at e = 0).
    """

    # Python floats: a reference read from CSV holds numpy scalars, whose
    # arithmetic gives the same bits many times slower
    psi, dFz, theta = float(state.psi), float(state.dFz), float(state.theta_r)
    point = [float(v) for v in (state.Vx, state.Vy, state.r, state.omega,
                                inp.delta, inp.Fxf, inp.tau)]

    def body_rates(Vx, Vy, r, omega, delta, Fxf, tau):
        return scalar_rates(params, Vx, Vy, r, psi, omega, dFz, theta,
                            delta, Fxf, tau)[:4]

    # body rows by column: the 4 body rates' central differences in each of
    # the 7 variables [Vx, Vy, r, omega, delta, Fxf, tau]
    columns = central_differences(body_rates, point)

    # analytic path rows, evaluated at e_ref = 0
    S, C = math.sin(state.dpsi), math.cos(state.dpsi)
    Vx, Vy = point[0], point[1]
    # one (6, 9) array [A | B]; dpsi and e enter no body rate
    AB = np.array([row[:4] + (0.0, 0.0) + row[4:] for row in zip(*columns)]
                  + [[-kappa * C, kappa * S, 1.0, 0.0,
                      kappa * (Vx * S + Vy * C),
                      -kappa * kappa * (Vx * C - Vy * S), 0.0, 0.0, 0.0],
                     [S, C, 0.0, 0.0, Vx * C - Vy * S, 0.0, 0.0, 0.0, 0.0]])
    return AB[:, :6], AB[:, 6:]


def linearize_stack(params: ParamSet, points) -> tuple[np.ndarray, np.ndarray]:
    """:func:`linearize` at every ``(state, input, kappa)`` point (as
    ``sample(s)`` returns them), stacked into (n, 6, 6) A and (n, 6, 3) B
    for batched linear algebra."""
    A = np.empty((len(points), 6, 6))
    B = np.empty((len(points), 6, 3))
    for i, point in enumerate(points):
        A[i], B[i] = linearize(params, *point)
    return A, B


#: LQR state weights on [Vx, Vy, r, omega, dpsi, e], as inverse-square
#: scales.  Heading and lateral error are weighted at 5 deg and 0.05 m: the
#: looser 10 deg / 0.2 m weights leave about 0.1 m of lateral lag while the
#: tread heats up quickly from a cold start and the reference equilibrium
#: moves.
LQR_Q = np.diag([
    0.5 ** -2,                  # longitudinal velocity, (m/s)^-2
    1.0 ** -2,                  # lateral velocity, (m/s)^-2
    0.6 ** -2,                  # yaw rate, (rad/s)^-2
    10.0 ** -2,                 # wheel speed, (rad/s)^-2
    math.radians(5.0) ** -2,    # heading error, rad^-2
    0.05 ** -2,                 # lateral error, m^-2
])
#: LQR input weights on [delta, Fxf, tau], as inverse-square scales
LQR_R = np.diag([
    math.radians(2.0) ** -2,    # steering angle, rad^-2
    500.0 ** -2,                # front braking force, N^-2
    500.0 ** -2,                # rear torque, (N m)^-2
])
LQR_Q.flags.writeable = LQR_R.flags.writeable = False


def spectral_abscissa(M: np.ndarray) -> float:
    return float(np.max(np.real(np.linalg.eigvals(M))))


def lqr_gain(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
             R: np.ndarray) -> np.ndarray:
    """Continuous-time infinite-horizon LQR gain via the algebraic Riccati
    equation: :func:`lqr_gains` on a stack of one.  A solution that fails
    the Riccati residual or the stability check raises ``SolverError``
    naming the check and its value, so the returned K strictly stabilizes
    (A, B)."""
    A, B, Q, R = (np.atleast_2d(np.asarray(M, dtype=float))
                  for M in (A, B, Q, R))
    try:
        sol = lqr_gains(A[None], B[None], Q, R)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Riccati solve failed: {exc}") from exc
    if not sol.ok[0]:
        raise SolverError(_failed_check(sol, 0))
    return sol.K[0]


@dataclass(frozen=True)
class LqrStack:
    """LQR solutions for a stack of linearizations, with the Riccati
    residual and closed-loop stability checks of each."""

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
    ``eig`` call covers the whole stack.  Nothing is raised for a bad knot:
    ``ok`` is False where its Riccati residual exceeds the tolerance or
    A - B K is not stable, and :func:`lqr_gain` and :func:`build_schedule`
    raise for it.
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
    # scipy's singularity test on U1 (1/cond < eps)
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


def _failed_check(sol: LqrStack, j: int) -> str:
    """The check that point ``j`` of ``sol`` fails, with its value."""
    if not sol.residual[j] <= _RESIDUAL_TOL:
        return (f"Riccati residual {sol.residual[j]:.2e} above tolerance "
                f"{_RESIDUAL_TOL:.0e}")
    return (f"closed-loop spectral abscissa {sol.abscissa[j]:+.3e}: the LQR "
            "gain does not stabilize the linearization")


@dataclass(frozen=True)
class GainSchedule:
    """Arc-length-indexed feedback gains.  The reference point at each knot
    is the plan's own ``sample(knot)``, which the schedule does not keep."""

    s_knots: np.ndarray     # (n,) strictly increasing
    K: np.ndarray           # (n, 3, 6)

    def __post_init__(self):
        if len(self.s_knots) == 0:
            raise ScheduleError("empty gain schedule")
        if np.any(np.diff(self.s_knots) <= 0.0):
            raise ScheduleError("schedule knots must be strictly increasing")

    def __len__(self) -> int:
        return len(self.s_knots)


def nearest_knot(knots, s: float) -> int:
    """Index of the knot nearest ``s`` in the increasing sequence ``knots``;
    ties break toward the smaller knot and s outside the knot range (or
    NaN) clamps to the nearest end."""
    last = len(knots) - 1
    if not s < knots[last]:
        return last
    i = bisect.bisect_left(knots, s)
    if i == 0:
        return 0
    return i - 1 if s - knots[i - 1] <= knots[i] - s else i


def _linearization_key(st: VehicleState, u: ControlInput,
                       kappa: float) -> bytes:
    """The bits of every value :func:`linearize` reads; the pose (e, s, psi,
    X, Y) enters neither A nor B."""
    return np.array([st.Vx, st.Vy, st.r, st.omega, st.dFz, st.theta_r,
                     st.dpsi, kappa, u.delta, u.Fxf, u.tau]).tobytes()


def schedule_knots(s_lo: float, s_hi: float) -> np.ndarray:
    """The gain-schedule knots over the arc [s_lo, s_hi]: every 0.25 m from
    ``s_lo``, the last at or just below ``s_hi``."""
    n = max(int(math.floor((s_hi - s_lo) / _KNOT_SPACING + 1e-9)) + 1, 1)
    return s_lo + _KNOT_SPACING * np.arange(n)


def build_schedule(params: ParamSet, traj) -> GainSchedule:
    """Linearize and solve the LQR problem (weights :data:`LQR_Q` and
    :data:`LQR_R`) at every 0.25 m of arc length.

    ``traj`` must provide ``s_span()`` and ``sample(s)`` (the three
    reference types ``QuasiSteadyTrajectory``, ``DynamicTrajectory`` and
    ``Figure8Plan`` do).  Knots whose linearization keys have the same bits
    share one linearization and one gain (a constant-friction circle has a
    single point).  All distinct points are solved in one :func:`lqr_gains`
    call; if a point fails its checks there, ``ScheduleError`` names the s
    of the first knot at it and the failed check.
    """
    knots = schedule_knots(*traj.s_span())
    n = len(knots)
    points = [traj.sample(float(s)) for s in knots]
    point_of = {}                       # linearization key -> point index
    first = []                          # first knot at each distinct point
    which = np.empty(n, dtype=np.intp)  # point index of every knot
    for i, point in enumerate(points):
        j = point_of.setdefault(_linearization_key(*point), len(first))
        if j == len(first):
            first.append(i)
        which[i] = j
    A, B = linearize_stack(params, [points[i] for i in first])
    sol = lqr_gains(A, B, LQR_Q, LQR_R)
    _log.debug("gain schedule: %d knots at %d distinct points, max Riccati "
               "residual %.3e, max closed-loop spectral abscissa %.4f",
               n, len(first), np.max(sol.residual), np.max(sol.abscissa))
    failed = np.flatnonzero(~sol.ok[which])
    if failed.size:
        raise ScheduleError(f"gain design failed at s={knots[failed[0]]:.2f} "
                            f"m: {_failed_check(sol, which[failed[0]])}")
    return GainSchedule(s_knots=knots, K=sol.K[which])
