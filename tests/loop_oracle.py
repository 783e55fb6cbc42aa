"""Plain-loop forms of the closed loop, the linearization, the Newton
Jacobian, the pole matching and the pole-cloud diameter: the oracles their
float-only and numpy forms in the package are pinned to, with ``==``.

* :func:`run` steps the closed loop with the schedule indexed at
  ``control.nearest_knot``, the plan sampled at that knot on every step,
  a :class:`ControlInput` per step and :func:`rk4_floats` over
  :func:`plant_rates`;
* :func:`linearize` takes each finite-difference column as an ndarray
  difference of two ndarray rate vectors;
* :func:`newton_jacobian` takes ``find_equilibrium``'s Jacobian with
  ndarray unknowns stepped in place, a column assigned per unknown;
* :func:`match` scans the remaining eigenvalues with ``abs`` for every
  trace;
* :func:`cloud_diameter` takes each trace's whole (n, n) matrix of
  pairwise distances.
"""

import math

import numpy as np

from thermaldrift.control import nearest_knot
from thermaldrift.errors import ModelDomainError
from thermaldrift.integrate import _fd_step
from thermaldrift.model import ControlInput, friction_coefficient, scalar_rates
from thermaldrift.paths import wrap_angle
from thermaldrift.sim import (
    _FXF_MAX,
    _FXF_MIN,
    _H_SIM,
    _SPINOUT_LIMIT,
    _T_MAX,
    SIM_COLUMNS,
    SimResult,
)


def plant_rates(y, params, inp):
    """Rates of the 9 floats [Vx, Vy, r, psi, omega, dFz, X, Y, theta]."""
    Vx, Vy, r, psi, omega, dFz, _, _, theta = y
    dVx, dVy, dr, domega, ddFz, dtheta, dX, dY, _, _ = scalar_rates(
        params, Vx, Vy, r, psi, omega, dFz, theta, inp.delta, inp.Fxf, inp.tau)
    return dVx, dVy, dr, r, domega, ddFz, dX, dY, dtheta


def rk4_floats(f, y, h, *args):
    """One RK4 step of ``y' = f(y, *args)`` on a sequence of floats, element
    by element in ``integrate.rk4``'s operation order."""
    hh = 0.5 * h
    k1 = f(y, *args)
    k2 = f([a + hh * b for a, b in zip(y, k1)], *args)
    k3 = f([a + hh * b for a, b in zip(y, k2)], *args)
    k4 = f([a + h * b for a, b in zip(y, k3)], *args)
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _control(scenario, y, e, s, dpsi):
    """The clamped input at the knot nearest s, and the plan's reference
    there: its six body states, e, dpsi and inputs, as Python floats."""
    sched = scenario.schedule
    i = nearest_knot(sched.s_knots, s)
    K = sched.K[i]
    st, inp, _ = scenario.path.sample(float(sched.s_knots[i]))
    ref_x = [float(getattr(st, name))
             for name in ("Vx", "Vy", "r", "omega", "dFz", "theta_r")]
    ref_e, ref_dpsi = float(st.e), float(st.dpsi)
    ref_u = [float(inp.delta), float(inp.Fxf), float(inp.tau)]
    du = (K @ np.array([y[0] - ref_x[0], y[1] - ref_x[1], y[2] - ref_x[2],
                        y[4] - ref_x[3], wrap_angle(dpsi - ref_dpsi),
                        e - ref_e])).tolist()
    lim = scenario.limits
    u = (min(max(ref_u[0] - du[0], lim.delta_min), lim.delta_max),
         min(max(ref_u[1] - du[1], _FXF_MIN), _FXF_MAX),
         min(max(ref_u[2] - du[2], lim.tau_min), lim.tau_max))
    return u, ref_x, ref_e, ref_dpsi, ref_u


def run(scenario):
    """``sim.run``, with the schedule looked up and the plant stepped
    through the loops above."""
    st = scenario.initial_state
    y = [float(v) for v in (st.Vx, st.Vy, st.r, st.psi, st.omega, st.dFz,
                            st.X, st.Y, st.theta_r)]
    h = _H_SIM
    plant = scenario.plant
    thp = plant.thermal
    n_max = int(math.ceil(_T_MAX / h)) + 1
    rows = np.empty((n_max, len(SIM_COLUMNS)))
    n = 0
    status, detail = "finished", ""
    s_hint = st.s
    t = 0.0

    for _ in range(n_max):
        Vx, Vy, r, psi, omega, dFz, X, Y, theta = y
        s, e, phi = scenario.path.project(X, Y, s_hint)
        s_hint = s
        dpsi = wrap_angle(psi - phi)
        u, ref_x, ref_e, ref_dpsi, ref_u = _control(scenario, y, e, s, dpsi)
        inp = ControlInput(*u)
        mu = friction_coefficient(thp, theta)
        ref_mu = friction_coefficient(thp, ref_x[5])
        rows[n] = (t, s, e, dpsi, Vx, Vy, r, omega, dFz, theta, mu, *u,
                   ref_e, ref_dpsi, *ref_x, ref_mu, *ref_u)
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
            y = rk4_floats(plant_rates, y, h, plant, inp)
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


def linearize(params, state, inp, kappa):
    """``control.linearize`` with ndarray differences per column."""

    def body_rates(Vx, Vy, r, omega, delta, Fxf, tau):
        rates = scalar_rates(params, Vx, Vy, r, state.psi, omega, state.dFz,
                             state.theta_r, delta, Fxf, tau)
        return np.array(rates[:4])

    x0 = [state.Vx, state.Vy, state.r, state.omega]
    u0 = [inp.delta, inp.Fxf, inp.tau]

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

    S, C = math.sin(state.dpsi), math.cos(state.dpsi)
    Vx, Vy = state.Vx, state.Vy
    A[4] = [-kappa * C, kappa * S, 1.0, 0.0,
            kappa * (Vx * S + Vy * C), -kappa * kappa * (Vx * C - Vy * S)]
    A[5] = [S, C, 0.0, 0.0, Vx * C - Vy * S, 0.0]
    return A, B


def newton_jacobian(residual, z):
    """The central-difference Jacobian of ``residual`` (an ndarray of
    unknowns to an ndarray, or None outside its domain) at ``z``, with the
    step written inline; None if a stencil point leaves the domain."""
    n = len(z)
    J = np.empty((n, n))
    for i in range(n):
        h = 1e-6 * max(1.0, abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        rp, rm = residual(zp), residual(zm)
        if rp is None or rm is None:
            return None
        J[:, i] = (rp - rm) / (2.0 * h)
    return J


def match(prev, eig):
    """``sim._match`` as a scan of the remaining eigenvalues per trace."""
    remaining = list(eig)
    out = np.empty_like(prev)
    for i, p in enumerate(prev):
        j = int(np.argmin([abs(p - q) for q in remaining]))
        out[i] = remaining.pop(j)
    return out


def cloud_diameter(poles):
    """``PoleTrace.cloud_diameter`` as the full (n, n) difference matrix of
    each trace in turn."""
    diam = 0.0
    for j in range(poles.shape[1]):
        tr = poles[:, j]
        d = np.abs(tr[:, None] - tr[None, :]).max()
        diam = max(diam, float(d))
    return diam
