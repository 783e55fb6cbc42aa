"""Closed-loop simulation of the gain-scheduled controller on a thermal plant.

The plant always carries the full tread-temperature dynamics; the reference
trajectory and gain schedule may have been designed against a constant
friction coefficient instead.  Running both designs against the same plant
reproduces the planner comparison: a constant-friction plan accumulates
lateral error as the tread heats up and grip falls away, while the
thermally-aware plan stays matched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fork import WorkerExitError, fork_map
from .control import (
    GainSchedule,
    linearize,  # noqa: F401  kept: perfbench/layers.py wraps sim.linearize
    nearest_knot,
)
from .errors import ModelDomainError, SimulationError
from .limits import ActuatorLimits, default_limits
from .model import (
    VehicleState,
    friction_coefficient,
    scalar_rates,
    vehicle_derivatives,  # noqa: F401  kept: perfbench/layers.py wraps sim.vehicle_derivatives
)
from .params import ParamSet
from .paths import wrap_angle

__all__ = ["Scenario", "SimResult", "PoleTrace", "run", "pole_trace", "compare"]

#: fixed CSV column order for simulation series
SIM_COLUMNS = (
    "t", "s", "e", "dpsi", "Vx", "Vy", "r", "omega", "dFz", "theta_r",
    "mu_r", "delta", "Fxf", "tau",
    "ref_e", "ref_dpsi", "ref_Vx", "ref_Vy", "ref_r", "ref_omega",
    "ref_dFz", "ref_theta_r", "ref_mu_r", "ref_delta", "ref_Fxf", "ref_tau",
)

_SPINOUT_LIMIT = math.radians(60.0)

#: fixed RK4 step of the closed loop, s
_H_SIM = 1e-3
#: simulated-time cap; a run that has not reached s_final by then fails, s
_T_MAX = 600.0
# The front brake has no published limit; this clamp only keeps the
# feedback from commanding a positive (tractive) front force.
_FXF_MIN, _FXF_MAX = -8000.0, 0.0  # N


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: a schedule tracked on a (thermal) plant.

    The schedule's feedback is clamped to ``limits`` (the front brake to
    -8000 to 0 N); RK4 steps the plant at a fixed 1 ms, for 600 s at most.
    """

    name: str
    schedule: GainSchedule
    path: object                    # CirclePath or Figure8Plan: project()
    plant: ParamSet
    initial_state: VehicleState
    s_final: float
    limits: ActuatorLimits = field(default_factory=default_limits)

    def __post_init__(self):
        if not self.s_final > self.initial_state.s:
            raise ValueError("s_final must lie ahead of the initial state")


@dataclass(frozen=True)
class SimResult:
    scenario: str
    status: str                     # "finished" | "spin_out" | "domain_error"
    detail: str
    series: np.ndarray              # (n, len(SIM_COLUMNS))
    max_abs_e: float
    rms_e: float
    max_abs_beta_err: float
    final_theta: float
    final_mu: float

    def column(self, name: str) -> np.ndarray:
        return self.series[:, SIM_COLUMNS.index(name)]


def _plant_step(plant: ParamSet, y, h: float, delta: float, Fxf: float,
                tau: float) -> list:
    """One RK4 step of the plant's 9 floats [Vx, Vy, r, psi, omega, dFz, X,
    Y, theta] at a held input.

    Written out in :func:`~thermaldrift.integrate.rk4`'s operation order, so
    the two give the same bits: the stages read ``a + hh*k`` (the last one
    ``a + h*k``) and the step is ``a + h6*(k1 + 2.0*k2 + 2.0*k3 + k4)``.
    psi's rate is the stage's own r; X and Y get no stage values, because
    no rate reads them.
    """
    Vx, Vy, r, psi, omega, dFz, X, Y, theta = y
    hh = 0.5 * h
    vx1, vy1, r1, w1, fz1, th1, x1, y1, _, _ = scalar_rates(
        plant, Vx, Vy, r, psi, omega, dFz, theta, delta, Fxf, tau)
    ra = r + hh * r1
    vx2, vy2, r2, w2, fz2, th2, x2, y2, _, _ = scalar_rates(
        plant, Vx + hh * vx1, Vy + hh * vy1, ra, psi + hh * r,
        omega + hh * w1, dFz + hh * fz1, theta + hh * th1, delta, Fxf, tau)
    rb = r + hh * r2
    vx3, vy3, r3, w3, fz3, th3, x3, y3, _, _ = scalar_rates(
        plant, Vx + hh * vx2, Vy + hh * vy2, rb, psi + hh * ra,
        omega + hh * w2, dFz + hh * fz2, theta + hh * th2, delta, Fxf, tau)
    rc = r + h * r3
    vx4, vy4, r4, w4, fz4, th4, x4, y4, _, _ = scalar_rates(
        plant, Vx + h * vx3, Vy + h * vy3, rc, psi + h * rb,
        omega + h * w3, dFz + h * fz3, theta + h * th3, delta, Fxf, tau)
    h6 = h / 6.0
    return [Vx + h6 * (vx1 + 2.0 * vx2 + 2.0 * vx3 + vx4),
            Vy + h6 * (vy1 + 2.0 * vy2 + 2.0 * vy3 + vy4),
            r + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4),
            psi + h6 * (r + 2.0 * ra + 2.0 * rb + rc),
            omega + h6 * (w1 + 2.0 * w2 + 2.0 * w3 + w4),
            dFz + h6 * (fz1 + 2.0 * fz2 + 2.0 * fz3 + fz4),
            X + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
            Y + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
            theta + h6 * (th1 + 2.0 * th2 + 2.0 * th3 + th4)]


def run(scenario: Scenario) -> SimResult:
    """Fixed-step RK4 closed-loop simulation until ``s_final`` is reached.

    A sideslip error beyond 60 degrees or a model-domain failure terminates
    the run with a diagnostic partial result rather than an exception.
    The feedback at each step comes from the schedule's knot nearest the
    projected arc length (:func:`~thermaldrift.control.nearest_knot`).
    """
    st = scenario.initial_state
    y = [float(v) for v in (st.Vx, st.Vy, st.r, st.psi, st.omega, st.dFz,
                            st.X, st.Y, st.theta_r)]
    h = _H_SIM
    plant = scenario.plant
    thp = plant.thermal
    lim = scenario.limits
    # the schedule as Python values, read once per run
    sched = scenario.schedule
    knots = sched.s_knots.tolist()
    gains = list(sched.K)
    ref_states = sched.ref_states.tolist()
    ref_inputs = sched.ref_inputs.tolist()
    ref_mus = [friction_coefficient(thp, ref_x[5]) for ref_x in ref_states]
    n_max = int(math.ceil(_T_MAX / h)) + 1
    rows = np.empty((n_max, len(SIM_COLUMNS)))
    n = 0
    status, detail = "finished", ""
    s_hint = st.s
    t = 0.0

    for step in range(n_max):
        Vx, Vy, r, psi, omega, dFz, X, Y, theta = y
        e, s, phi = _project(scenario.path, X, Y, s_hint)
        s_hint = s
        dpsi = wrap_angle(psi - phi)
        k = nearest_knot(knots, s)
        ref_x, ref_u = ref_states[k], ref_inputs[k]
        # one numpy matmul: a Python dot sums in another order
        du = (gains[k] @ np.array([
            Vx - ref_x[0], Vy - ref_x[1], r - ref_x[2], omega - ref_x[3],
            wrap_angle(dpsi - ref_x[8]), e - ref_x[6]])).tolist()
        delta = min(max(ref_u[0] - du[0], lim.delta_min), lim.delta_max)
        Fxf = min(max(ref_u[1] - du[1], _FXF_MIN), _FXF_MAX)
        tau = min(max(ref_u[2] - du[2], lim.tau_min), lim.tau_max)
        mu = friction_coefficient(thp, theta)
        rows[n] = (t, s, e, dpsi, Vx, Vy, r, omega, dFz, theta, mu,
                   delta, Fxf, tau, ref_x[6], ref_x[8], *ref_x[:6],
                   ref_mus[k], *ref_u)
        n += 1

        beta = math.atan2(Vy, Vx)
        beta_ref = math.atan2(ref_x[1], ref_x[0])
        if abs(wrap_angle(beta - beta_ref)) > _SPINOUT_LIMIT:
            status, detail = "spin_out", (
                f"sideslip error exceeded 60 deg at t={t:.3f} s, s={s:.2f} m")
            break
        if s >= scenario.s_final:
            break
        try:
            y = _plant_step(plant, y, h, delta, Fxf, tau)
        except ModelDomainError as exc:
            status, detail = "domain_error", f"at t={t:.3f} s, s={s:.2f} m: {exc}"
            break
        t += h
    else:
        status, detail = "domain_error", (
            f"time limit {_T_MAX} s reached before s_final")

    series = rows[:n].copy()
    e_col = series[:, SIM_COLUMNS.index("e")]
    beta_err = np.arctan2(series[:, SIM_COLUMNS.index("Vy")],
                          series[:, SIM_COLUMNS.index("Vx")]) \
        - np.arctan2(series[:, SIM_COLUMNS.index("ref_Vy")],
                     series[:, SIM_COLUMNS.index("ref_Vx")])
    beta_err = np.arctan2(np.sin(beta_err), np.cos(beta_err))
    return SimResult(
        scenario=scenario.name, status=status, detail=detail, series=series,
        max_abs_e=float(np.max(np.abs(e_col))),
        rms_e=float(np.sqrt(np.mean(e_col ** 2))),
        max_abs_beta_err=float(np.max(np.abs(beta_err))),
        final_theta=float(series[-1, SIM_COLUMNS.index("theta_r")]),
        final_mu=float(series[-1, SIM_COLUMNS.index("mu_r")]))


def _project(path, X, Y, s_hint):
    s, e, phi = path.project(X, Y, s_hint)
    return e, s, phi


# ---------------------------------------------------------------------------
# pole analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoleTrace:
    """Closed-loop spectra along the schedule, with matched eigenvalue traces."""

    s_knots: np.ndarray    # (n,)
    poles: np.ndarray      # (n, 6) complex, matched across knots

    @property
    def cloud_diameter(self) -> float:
        """Largest pairwise spread of any single eigenvalue trace."""
        diam = 0.0
        for j in range(self.poles.shape[1]):
            tr = self.poles[:, j]
            d = np.abs(tr[:, None] - tr[None, :]).max()
            diam = max(diam, float(d))
        return diam

    @property
    def spectral_abscissa(self) -> float:
        return float(np.max(self.poles.real))


def pole_trace(schedule: GainSchedule, A: np.ndarray,
               B: np.ndarray) -> PoleTrace:
    """Closed-loop spectra of the schedule's gains against a plant model.

    ``A`` and ``B`` are the plant linearized at the operating points it
    visits, one per schedule knot: the (n, 6, 6) and (n, 6, 3) stacks
    ``linearize_stack(params, [ref.sample(float(s)) for s in knots])`` of
    :func:`~thermaldrift.control.linearize_stack` along a reference
    ``ref``.  Linearizing along the schedule's own reference gives the
    matched spectra; linearizing along another plan lets two schedules be
    compared against the identical set of linearizations — the mismatch a
    constant-friction design experiences when the plant follows the thermal
    trajectory.  A stack whose length is not the knot count raises
    ``ValueError``.
    """
    knots = schedule.s_knots
    if A.shape[0] != len(knots) or B.shape[0] != len(knots):
        raise ValueError(f"{A.shape[0]} plant A and {B.shape[0]} B matrices "
                         f"for {len(knots)} schedule knots")
    eig = np.linalg.eigvals(A - B @ schedule.K)
    poles = np.empty((len(knots), 6), dtype=complex)
    poles[0] = eig[0]
    for i in range(1, len(knots)):
        poles[i] = _match(poles[i - 1], eig[i])
    return PoleTrace(s_knots=knots.copy(), poles=poles)


def _match(prev: np.ndarray, eig: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbor assignment of eigenvalues to existing traces.

    Trace by trace, in order, takes the nearest eigenvalue not yet taken;
    of equally near ones, the first in ``eig``'s order.
    """
    dist = np.abs(prev[:, None] - eig[None, :]).tolist()
    remaining = list(range(len(eig)))
    out = np.empty_like(prev)
    for i, row in enumerate(dist):
        j = min(remaining, key=row.__getitem__)
        remaining.remove(j)
        out[i] = eig[j]
    return out


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------

def compare(scenarios: list[Scenario]) -> dict:
    """Run every scenario; failures are reported inline, not raised.

    Returns scenario name -> :class:`SimResult`, in the order given.  A
    scenario whose :func:`run` raised maps to a :class:`SimulationError`
    naming it instead.  The scenarios share no state, so they run in forked
    workers, one per core (:func:`~thermaldrift._fork.fork_map`); each
    result is bit-identical to calling :func:`run` on the scenario here.
    A worker that exits without its result raises a
    :class:`SimulationError` naming its scenario.
    """
    if not scenarios:
        raise SimulationError("compare needs at least one scenario")
    try:
        results = fork_map(_run_reported, scenarios)
    except WorkerExitError as exc:
        raise SimulationError(f"{scenarios[exc.index].name}: {exc}") from None
    return {sc.name: res for sc, res in zip(scenarios, results)}


def _run_reported(sc: Scenario):
    try:
        return run(sc)
    except Exception as exc:  # noqa: BLE001 - report, keep going
        return SimulationError(f"{sc.name}: {exc}")


def comparison_table(results: dict) -> str:
    """Aligned text table of the per-scenario summary metrics."""
    header = (f"{'scenario':<16} {'status':<12} {'max|e| m':>10} "
              f"{'rms e m':>10} {'max|b_err| deg':>14} "
              f"{'final theta':>12} {'final mu':>9}")
    lines = [header, "-" * len(header)]
    for name, res in results.items():
        if isinstance(res, Exception):
            lines.append(f"{name:<16} {'error':<12} {res}")
            continue
        lines.append(
            f"{name:<16} {res.status:<12} {res.max_abs_e:>10.4f} "
            f"{res.rms_e:>10.4f} {math.degrees(res.max_abs_beta_err):>14.2f} "
            f"{res.final_theta:>12.2f} {res.final_mu:>9.4f}")
    return "\n".join(lines)
