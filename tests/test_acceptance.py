"""Acceptance suite: the eleven primary checks, each at its stated tolerance.

Everything here runs against the public package API; the expensive artifacts
(the transition solve, the three-way steady comparison) come from the shared
session fixtures in conftest.py.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from thermaldrift import csvio
from thermaldrift.control import (
    LQR_Q,
    LQR_R,
    linearize,
    linearize_stack,
    lqr_gain,
    spectral_abscissa,
)
from thermaldrift.equilibrium import quasi_steady_sweep
from thermaldrift.integrate import rk4
from thermaldrift.model import (
    ControlInput,
    VehicleState,
    friction_coefficient,
    scalar_rates,
    vehicle_derivatives,
)
from thermaldrift.params import default_params
from thermaldrift.sim import pole_trace, run
from thermaldrift.trajopt import IX, rk4_step

from conftest import BETA, RADIUS, THETA0
from model_oracle import fiala_lateral_force, rear_combined_forces


# ---------------------------------------------------------------------------
# 1. drift equilibrium: residual, stationarity under integration, runtime
# ---------------------------------------------------------------------------

def test_criterion_1_equilibrium(params):
    from thermaldrift.equilibrium import find_equilibrium
    t0 = time.perf_counter()
    eq = find_equilibrium(params, RADIUS, BETA, THETA0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert eq.residual_norm < 1e-8

    # forward-integrate the body states for 5 s with the temperature frozen;
    # a true equilibrium holds every component to 1e-4
    inp = eq.input()
    st0 = eq.state()
    y0 = np.array([st0.Vx, st0.Vy, st0.r, st0.omega, st0.dFz])

    def f(y):
        state = VehicleState(Vx=y[0], Vy=y[1], r=y[2], omega=y[3], dFz=y[4],
                             theta_r=THETA0)
        rt = vehicle_derivatives(params, state, inp)
        return np.array([rt.Vx, rt.Vy, rt.r, rt.omega, rt.dFz])

    y = y0.copy()
    h = 1e-3
    for _ in range(5000):
        y = rk4(f, y, h)
    assert np.max(np.abs(y - y0)) < 1e-4


# ---------------------------------------------------------------------------
# 2. friction-temperature map anchor points
# ---------------------------------------------------------------------------

def test_criterion_2_friction_map(params):
    thp = params.thermal
    assert friction_coefficient(thp, 0.0) == 1.070
    assert friction_coefficient(thp, 30.0) == pytest.approx(
        1.070 - 3.967e-3 * 30.0, abs=1e-6)


# ---------------------------------------------------------------------------
# 3. thermal ODE against the closed-form exponential
# ---------------------------------------------------------------------------

def test_criterion_3_thermal_exponential(params):
    """The kernel's tread temperature rate at a free-rolling state: with no
    slip the rear tire carries no force, so the heating power Q is the
    rolling resistance alone and does not depend on the temperature."""
    thp = params.thermal
    tau = thp.C_tire / thp.KA_tire
    assert tau == pytest.approx(4905.0 / 762.0)
    omega = 40.0
    Vx = params.vehicle.Re * omega

    def rates(theta):
        return scalar_rates(params, Vx, 0.0, 0.0, 0.0, omega, 0.0, theta,
                            0.0, 0.0, 0.0)

    theta0 = 30.0
    Q = rates(theta0)[8]
    assert Q == pytest.approx(935.4, abs=0.05)
    theta_ss = thp.theta_out + Q / thp.KA_tire
    exact = theta_ss + (theta0 - theta_ss) * math.exp(-1.0)

    n = 1000
    h = tau / n
    theta = theta0
    for _ in range(n):
        theta = rk4(lambda th: rates(th)[5], theta, h)
    assert rates(theta)[8] == Q
    assert abs(theta - exact) / abs(exact) < 1e-6


# ---------------------------------------------------------------------------
# 4. rear friction circle and front Fiala continuity
# ---------------------------------------------------------------------------

def test_criterion_4_friction_circle(params):
    tp = params.tire
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        alpha = rng.uniform(-1.0, 1.0)
        kappa = rng.uniform(-0.75, 1.5)
        mu = rng.uniform(0.5, 1.1)
        F_zr = rng.uniform(1e3, 1.2e4)
        F_xr, F_yr, *_ = rear_combined_forces(tp, mu, F_zr, alpha, kappa)
        assert math.hypot(F_xr, F_yr) <= mu * F_zr * (1.0 + 1e-9)

    # Fiala force is continuous where the cubic meets full sliding
    C_alpha, F_ymax = 1.5e5, 7000.0
    alpha_slide = math.atan(3.0 * F_ymax / C_alpha)
    below = fiala_lateral_force(C_alpha, F_ymax, alpha_slide * (1.0 - 1e-12))
    above = fiala_lateral_force(C_alpha, F_ymax, alpha_slide * (1.0 + 1e-12))
    assert abs(below - above) <= 1e-9 * F_ymax


# ---------------------------------------------------------------------------
# 5. integrator order
# ---------------------------------------------------------------------------

def test_criterion_5_rk4_order():
    Vx, r, T = 10.0, 0.5, 2.0

    def f(y):
        return np.array([r, Vx * math.cos(y[0]), Vx * math.sin(y[0])])

    R = Vx / r
    exact = np.array([r * T, R * math.sin(r * T), R * (1.0 - math.cos(r * T))])
    errs = []
    for h in (0.1, 0.05, 0.025):
        y = np.zeros(3)
        for _ in range(int(round(T / h))):
            y = rk4(f, y, h)
        errs.append(np.linalg.norm(y - exact))
    assert math.log2(errs[0] / errs[1]) >= 3.9
    assert math.log2(errs[1] / errs[2]) >= 3.9


# ---------------------------------------------------------------------------
# 6. figure-8 transition: convergence, replay, bounds, terminal, runtime
# ---------------------------------------------------------------------------

def test_criterion_6_transition(transition):
    problem, traj, elapsed = transition
    assert elapsed < 60.0
    assert traj.max_defect < 1e-6
    assert problem.h_min - 1e-12 <= traj.h <= problem.h_max + 1e-12

    # exact replay with the package integrator
    x = traj.states[0].copy()
    for k in range(problem.N):
        x = rk4_step(problem.params, x, traj.inputs[k], traj.h)
        assert np.max(np.abs(x - traj.states[k + 1])) < 1e-6

    # actuator bounds on magnitudes and slew rates
    lim = problem.limits
    delta = traj.states[:, IX.delta]
    tau = traj.states[:, IX.tau]
    tol = 1e-8
    assert np.all(delta >= lim.delta_min - tol)
    assert np.all(delta <= lim.delta_max + tol)
    assert np.all(tau >= lim.tau_min - tol)
    assert np.all(tau <= lim.tau_max + tol)
    ddelta = traj.inputs[:, 0]
    dtau = traj.inputs[:, 1]
    assert np.all(ddelta >= lim.ddelta_min - tol)
    assert np.all(ddelta <= lim.ddelta_max + tol)
    assert np.all(dtau >= lim.dtau_min - tol)
    assert np.all(dtau <= lim.dtau_max + tol)

    # terminal boundary conditions
    xN = traj.states[-1]
    V_N = math.hypot(xN[IX.Vx], xN[IX.Vy])
    beta_N = math.atan2(xN[IX.Vy], xN[IX.Vx])
    assert abs(xN[IX.r] / V_N - problem.kappa_final) < 1e-6
    assert abs(beta_N - problem.beta_final) < 1e-6


# ---------------------------------------------------------------------------
# 7. LQR: scalar oracles, stabilization of every scheduled gain, Riccati
# ---------------------------------------------------------------------------

def test_criterion_7_lqr(params, eq_nominal, steady_schedules, steady_plans):
    K = lqr_gain([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(K[0, 0] - 1.0) < 1e-10
    K = lqr_gain([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(K[0, 0] - (1.0 + math.sqrt(2.0))) < 1e-10

    # every gain in the thermal schedule stabilizes its own linearization
    sched = steady_schedules["thermal"]
    plan = steady_plans["thermal"]
    trace = pole_trace(sched, *linearize_stack(
        params, [plan.sample(float(s)) for s in sched.s_knots]))
    assert trace.spectral_abscissa < 0.0

    # independent algebraic-Riccati residual at the nominal operating point
    A, B = linearize(params, eq_nominal.state(), eq_nominal.input(),
                     1.0 / RADIUS)
    K = lqr_gain(A, B, LQR_Q, LQR_R)
    P = scipy.linalg.solve_continuous_are(A, B, LQR_Q, LQR_R)
    resid = (A.T @ P + P @ A + LQR_Q
             - P @ B @ np.linalg.solve(LQR_R, B.T @ P))
    assert np.linalg.norm(resid) / max(1.0, np.linalg.norm(P)) < 1e-8
    assert spectral_abscissa(A - B @ K) < 0.0


# ---------------------------------------------------------------------------
# 8. thermal plan beats both constant-friction plans on the thermal plant
# ---------------------------------------------------------------------------

def test_criterion_8_steady_comparison(steady_results):
    thermal = steady_results["thermal"]
    assert thermal.status == "finished"
    assert thermal.max_abs_e < 0.05
    for name in ("mu0.73", "mu0.8"):
        const = steady_results[name]
        assert thermal.max_abs_e < const.max_abs_e
        # the hot plant under-delivers grip: the constant-friction plans end
        # up inboard (e < 0) over the final third of their recorded run
        e = const.column("e")
        tail = e[2 * len(e) // 3:]
        assert np.all(tail < 0.0)


# ---------------------------------------------------------------------------
# 9. pole-cloud spread at the plant's actual operating points
# ---------------------------------------------------------------------------

def test_criterion_9_pole_clouds(params, steady_schedules, steady_plans):
    # both schedules share the 300 m knots: one linearization of the plant
    # at the operating points it visits on the thermal plan
    knots = steady_schedules["thermal"].s_knots
    plan = steady_plans["thermal"]
    plant_lin = linearize_stack(
        params, [plan.sample(float(s)) for s in knots])
    thermal = pole_trace(steady_schedules["thermal"], *plant_lin)
    const = pole_trace(steady_schedules["mu0.8"], *plant_lin)
    assert thermal.cloud_diameter < const.cloud_diameter


# ---------------------------------------------------------------------------
# 10. thermal coupling disabled: the sweep degenerates to constant inputs
# ---------------------------------------------------------------------------

def test_criterion_10_thermal_disabled(params):
    traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 10.0,
                              thermal=False)
    z = np.array([eq.unknowns() for eq in traj.equilibria])
    assert np.max(np.abs(z - z[0])) < 1e-9


# ---------------------------------------------------------------------------
# 11. determinism and exact serialization
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path, params, steady_plans,
                                  steady_schedules, steady_scenarios):
    a = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 5.0)
    b = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 5.0)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.t, b.t)
    assert a.equilibria == b.equilibria

    sc = next(s for s in steady_scenarios if s.name == "thermal")
    short = type(sc)(name=sc.name, schedule=sc.schedule, path=sc.path,
                     plant=sc.plant, initial_state=sc.initial_state,
                     s_final=20.0)
    r1, r2 = run(short), run(short)
    assert np.array_equal(r1.series, r2.series)

    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(a, path)
    loaded = csvio.load_quasi_steady(path)
    assert np.array_equal(loaded.theta, a.theta)
    assert np.array_equal(loaded.t, a.t)
    assert np.array_equal(loaded.Q, a.Q)
    assert loaded.equilibria == a.equilibria
