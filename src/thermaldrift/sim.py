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

from .control import (
    REF_STATE_FIELDS,
    GainSchedule,
    OperatingPoint,
    linearize,  # noqa: F401  kept: perfbench/layers.py wraps sim.linearize
    linearize_stack,
    lookup,
)
from .errors import ModelDomainError, SimulationError
from .integrate import rk4
from .limits import ActuatorLimits, default_limits
from .model import (
    ControlInput,
    VehicleState,
    friction_coefficient,
    vehicle_derivatives,
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


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: a schedule tracked on a (thermal) plant."""

    name: str
    schedule: GainSchedule
    path: object                    # CirclePath / CompositePath-like
    plant: ParamSet
    initial_state: VehicleState
    s_final: float
    h_sim: float = 1e-3
    t_max: float = 600.0
    limits: ActuatorLimits = field(default_factory=default_limits)
    gains_enabled: bool = True      # False = feedforward only (open loop)

    def __post_init__(self):
        if self.h_sim <= 0.0:
            raise ValueError("h_sim must be positive")
        if self.s_final <= self.initial_state.s:
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


def _plant_rates(y: np.ndarray, params: ParamSet, inp: ControlInput) -> np.ndarray:
    """Rates of the 9-vector [Vx, Vy, r, psi, omega, dFz, X, Y, theta]."""
    state = VehicleState(Vx=y[0], Vy=y[1], r=y[2], omega=y[4], dFz=y[5],
                         theta_r=y[8], psi=y[3], X=y[6], Y=y[7])
    rt = vehicle_derivatives(params, state, inp, kappa=0.0)
    return np.array([rt.Vx, rt.Vy, rt.r, y[2], rt.omega, rt.dFz,
                     rt.X, rt.Y, rt.theta_r])


def _control(scenario: Scenario, y, e, s, dpsi):
    K, ref_x, ref_u, _ = lookup(scenario.schedule, s)
    if scenario.gains_enabled:
        x_err = np.array([y[0] - ref_x[0], y[1] - ref_x[1], y[2] - ref_x[2],
                          y[4] - ref_x[3], wrap_angle(dpsi - ref_x[8]),
                          e - ref_x[6]])
        u = ref_u - K @ x_err
    else:
        u = ref_u.copy()
    lim = scenario.limits
    u[0] = min(max(u[0], lim.delta_min), lim.delta_max)
    u[1] = min(max(u[1], lim.Fxf_min), lim.Fxf_max)
    u[2] = min(max(u[2], lim.tau_min), lim.tau_max)
    return u, ref_x, ref_u


def run(scenario: Scenario) -> SimResult:
    """Fixed-step RK4 closed-loop simulation until ``s_final`` is reached.

    A sideslip error beyond 60 degrees or a model-domain failure terminates
    the run with a diagnostic partial result rather than an exception.
    """
    st = scenario.initial_state
    y = np.array([st.Vx, st.Vy, st.r, st.psi, st.omega, st.dFz,
                  st.X, st.Y, st.theta_r], dtype=float)
    h = scenario.h_sim
    plant = scenario.plant
    thp = plant.thermal
    n_max = int(math.ceil(scenario.t_max / h)) + 1
    rows = np.empty((n_max, len(SIM_COLUMNS)))
    n = 0
    status, detail = "finished", ""
    s_hint = st.s
    t = 0.0

    for step in range(n_max):
        e, s, phi = _project(scenario.path, y[6], y[7], s_hint)
        s_hint = s
        dpsi = wrap_angle(y[3] - phi)
        u, ref_x, ref_u = _control(scenario, y, e, s, dpsi)
        inp = ControlInput(delta=float(u[0]), Fxf=float(u[1]), tau=float(u[2]))
        mu = friction_coefficient(thp, y[8])
        ref_mu = friction_coefficient(thp, ref_x[5])
        rows[n] = (t, s, e, dpsi, y[0], y[1], y[2], y[4], y[5], y[8], mu,
                   u[0], u[1], u[2],
                   ref_x[6], ref_x[8], ref_x[0], ref_x[1], ref_x[2], ref_x[3],
                   ref_x[4], ref_x[5], ref_mu, ref_u[0], ref_u[1], ref_u[2])
        n += 1

        beta = math.atan2(y[1], y[0])
        beta_ref = math.atan2(ref_x[1], ref_x[0])
        if abs(wrap_angle(beta - beta_ref)) > _SPINOUT_LIMIT:
            status, detail = "spin_out", (
                f"sideslip error exceeded 60 deg at t={t:.3f} s, s={s:.2f} m")
            break
        if s >= scenario.s_final:
            break
        try:
            y = rk4(_plant_rates, y, h, plant, inp)
        except ModelDomainError as exc:
            status, detail = "domain_error", f"at t={t:.3f} s, s={s:.2f} m: {exc}"
            break
        t += h
    else:
        status, detail = "domain_error", (
            f"time limit {scenario.t_max} s reached before s_final")

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


def pole_trace(schedule: GainSchedule, plant: ParamSet,
               plant_theta=None, plant_lin=None) -> PoleTrace:
    """Closed-loop spectra of the schedule's gains against the plant model.

    By default the linearization point is the schedule's own reference
    (matched design and plant).  ``plant_theta`` swaps in the plant's tread
    temperature at each knot (array or scalar) while keeping the schedule's
    reference states.  ``plant_lin`` goes further: it is the plant already
    linearized at the operating points it actually visits, the ``(A, B)``
    stacks of :func:`~thermaldrift.control.linearize_stack` at the
    schedule's knots, so two schedules can be compared against the identical
    set of linearizations — the mismatch a constant-friction design
    experiences when the plant follows the thermal trajectory.
    """
    knots = schedule.s_knots
    if plant_lin is None:
        plant_lin = linearize_stack(plant,
                                    _schedule_points(schedule, plant_theta))
    elif plant_theta is not None:
        raise ValueError("pass plant_theta or plant_lin, not both")
    A, B = plant_lin
    if A.shape[0] != len(knots) or B.shape[0] != len(knots):
        raise ValueError(f"{A.shape[0]} plant A and {B.shape[0]} B matrices "
                         f"for {len(knots)} schedule knots")
    eig = np.linalg.eigvals(A - B @ schedule.K)
    poles = np.empty((len(knots), 6), dtype=complex)
    poles[0] = eig[0]
    for i in range(1, len(knots)):
        poles[i] = _match(poles[i - 1], eig[i])
    return PoleTrace(s_knots=knots.copy(), poles=poles)


def _schedule_points(schedule: GainSchedule,
                     plant_theta) -> list[OperatingPoint]:
    """The schedule's own reference at each knot, at the plant's tread
    temperature ``plant_theta`` (default: the schedule's)."""
    if plant_theta is None:
        theta = schedule.theta
    else:
        theta = np.broadcast_to(np.asarray(plant_theta, dtype=float),
                                schedule.s_knots.shape)
    ops = []
    for ref, u, kappa, th in zip(schedule.ref_states, schedule.ref_inputs,
                                 schedule.kappa, theta):
        state = VehicleState(**dict(zip(REF_STATE_FIELDS, ref),
                                    theta_r=float(th)))
        inp = ControlInput(delta=u[0], Fxf=u[1], tau=u[2])
        ops.append(OperatingPoint(state=state, input=inp, kappa=float(kappa)))
    return ops


def _match(prev: np.ndarray, eig: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbor assignment of eigenvalues to existing traces."""
    remaining = list(eig)
    out = np.empty_like(prev)
    for i, p in enumerate(prev):
        j = int(np.argmin([abs(p - q) for q in remaining]))
        out[i] = remaining.pop(j)
    return out


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------

def compare(scenarios: list[Scenario]) -> dict:
    """Run every scenario; failures are reported inline, not raised."""
    if not scenarios:
        raise SimulationError("compare needs at least one scenario")
    results = {}
    for sc in scenarios:
        try:
            results[sc.name] = run(sc)
        except Exception as exc:  # noqa: BLE001 - report, keep going
            results[sc.name] = SimulationError(f"{sc.name}: {exc}")
    return results


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
