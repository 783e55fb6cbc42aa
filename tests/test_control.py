import logging
import math

import numpy as np
import pytest
import scipy.linalg

from thermaldrift import csvio
from thermaldrift.control import (
    LQR_Q,
    LQR_R,
    GainSchedule,
    build_schedule,
    linearize,
    linearize_stack,
    lqr_gain,
    lqr_gains,
    nearest_knot,
    spectral_abscissa,
)
from thermaldrift.equilibrium import find_equilibrium
from thermaldrift.errors import ScheduleError, SolverError
from thermaldrift.model import vehicle_derivatives

import loop_oracle
from conftest import BETA, RADIUS, THETA0


def nominal_point(eq):
    """The (state, input, kappa) point at an equilibrium on the circle."""
    return eq.state(), eq.input(), 1.0 / RADIUS


# ---------------------------------------------------------------------------
# LQR gains
# ---------------------------------------------------------------------------

def test_scalar_lqr_exact():
    K = lqr_gain([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(K[0, 0] - 1.0) < 1e-10
    K = lqr_gain([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(K[0, 0] - (1.0 + math.sqrt(2.0))) < 1e-10


def test_lqr_rejects_unstabilizable():
    with pytest.raises(SolverError):
        lqr_gain([[1.0]], [[0.0]], [[1.0]], [[1.0]])


def test_full_gain_stabilizes(params, eq_nominal):
    A, B = linearize(params, *nominal_point(eq_nominal))
    K = lqr_gain(A, B, LQR_Q, LQR_R)
    assert spectral_abscissa(A - B @ K) < 0.0
    # independent Riccati residual check
    P = scipy.linalg.solve_continuous_are(A, B, LQR_Q, LQR_R)
    K_ref = np.linalg.solve(LQR_R, B.T @ P)
    assert np.allclose(K, K_ref, atol=1e-8)
    resid = A.T @ P + P @ A - P @ B @ K_ref + LQR_Q
    assert np.linalg.norm(resid) / max(1.0, np.linalg.norm(P)) < 1e-8
    # perturbed linear closed loop decays
    x = np.full(6, 0.05)
    Acl = A - B @ K
    for _ in range(2000):
        x = x + 0.005 * (Acl @ x)
    assert np.linalg.norm(x) < 0.05


@pytest.mark.parametrize("name", ["thermal", "mu0.73", "mu0.8"])
def test_batched_gains_match_scipy(params, steady_plans, steady_schedules,
                                   name):
    """The batched Hamiltonian solve against scipy's CARE solver, knot by
    knot, on the 300 m schedules (1201 knots each)."""
    sched = steady_schedules[name]
    plan = steady_plans[name]
    A, B = linearize_stack(params,
                           [plan.sample(float(s)) for s in sched.s_knots])
    sol = lqr_gains(A, B, LQR_Q, LQR_R)
    assert sol.ok.all()
    np.testing.assert_array_equal(sched.K, sol.K)  # no scipy fallback
    K_err = np.empty(len(sched))
    resid = np.empty(len(sched))
    for i in range(len(sched)):
        P_ref = scipy.linalg.solve_continuous_are(A[i], B[i], LQR_Q, LQR_R)
        K_ref = np.linalg.solve(LQR_R, B[i].T @ P_ref)
        K_err[i] = np.linalg.norm(sol.K[i] - K_ref) / np.linalg.norm(K_ref)
        P = sol.P[i]
        r = A[i].T @ P + P @ A[i] - P @ B[i] @ sol.K[i] + LQR_Q
        resid[i] = np.linalg.norm(r) / max(1.0, np.linalg.norm(P))
    assert K_err.max() <= 1e-9
    assert resid.max() <= 1e-8


def test_schedule_failure_names_knot(params, monkeypatch):
    """A knot with no actuation (B = 0) on the open-loop unstable drift
    equilibrium fails the batched solve and the scipy fallback."""
    from thermaldrift import control
    from thermaldrift.equilibrium import quasi_steady_sweep
    traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 5.0)
    real = control.linearize
    bad_s = 2.0

    def linearize_unactuated_at(params, state, inp, kappa):
        A, B = real(params, state, inp, kappa)
        if state.s == bad_s:
            assert spectral_abscissa(A) > 0.0
            return A, np.zeros_like(B)
        return A, B

    monkeypatch.setattr(control, "linearize", linearize_unactuated_at)
    with pytest.raises(ScheduleError,
                       match=r"gain design failed at s=2\.00 m"):
        build_schedule(params, traj)


def test_schedule_logs_diagnostics(params, caplog):
    from thermaldrift.equilibrium import quasi_steady_sweep
    traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 5.0)
    with caplog.at_level(logging.DEBUG, logger="thermaldrift.control"):
        build_schedule(params, traj)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "thermaldrift.control"]
    assert len(lines) == 1
    assert "21 knots" in lines[0] and "0 scipy fallbacks" in lines[0]


def test_schedule_falls_back_to_scipy(params, monkeypatch, caplog):
    """A knot the batched solve rejects gets lqr_gain's K, and is counted."""
    from thermaldrift import control
    from thermaldrift.equilibrium import quasi_steady_sweep
    traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 5.0)
    real = control.lqr_gains
    bad = 7

    def lqr_gains_rejecting_one(A, B, Q, R):
        sol = real(A, B, Q, R)
        ok = sol.ok.copy()
        ok[bad] = False
        K = sol.K.copy()
        K[bad] = np.nan
        return control.LqrStack(K=K, P=sol.P, residual=sol.residual,
                                abscissa=sol.abscissa, ok=ok)

    monkeypatch.setattr(control, "lqr_gains", lqr_gains_rejecting_one)
    with caplog.at_level(logging.DEBUG, logger="thermaldrift.control"):
        sched = build_schedule(params, traj)
    A, B = linearize_stack(params,
                           [traj.sample(float(s)) for s in sched.s_knots])
    np.testing.assert_array_equal(sched.K[bad],
                                  lqr_gain(A[bad], B[bad], LQR_Q, LQR_R))
    assert np.isfinite(sched.K).all()
    lines = [r.getMessage() for r in caplog.records
             if r.name == "thermaldrift.control"]
    assert len(lines) == 1 and "1 scipy fallbacks" in lines[0]


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def _linearization_points(params, steady_plans, figure8_plan, tmp_path):
    """Every knot of the thermal plan, also as read back from CSV (numpy
    scalars), and of the figure-8 plan (its transition has nonzero dpsi),
    plus seeded points around drift equilibria with braking, heading and
    curvature set."""
    thermal = steady_plans["thermal"]
    csvio.save_quasi_steady(thermal, tmp_path / "trajectory.csv")
    loaded = csvio.load_quasi_steady(tmp_path / "trajectory.csv")
    points = [plan.sample(0.25 * k) for plan in (thermal, loaded)
              for k in range(thermal.n_nodes)]
    assert type(points[-1][0].Vx) is np.float64
    points += [figure8_plan.sample(float(s))
               for s in figure8_plan.schedule.s_knots]
    rng = np.random.default_rng(3)
    for sign in (1.0, -1.0):
        for theta in (0.0, 40.0, 90.0):
            eq = find_equilibrium(params, sign * RADIUS, sign * BETA, theta)
            st, u = eq.state(), eq.input()
            for _ in range(20):
                f = rng.uniform(0.9, 1.1, size=5)
                points.append((
                    st.replace(Vx=st.Vx * f[0], Vy=st.Vy * f[1],
                               r=st.r * f[2], omega=st.omega * f[3],
                               psi=rng.uniform(-math.pi, math.pi),
                               dpsi=rng.uniform(-0.3, 0.3)),
                    u.replace(delta=u.delta * f[4],
                              Fxf=rng.uniform(-3000.0, 0.0),
                              tau=rng.uniform(-500.0, 1500.0)),
                    rng.uniform(-0.1, 0.1)))
    return points


def test_linearize_equals_loop_oracle(params, steady_plans, figure8_plan,
                                     tmp_path):
    """The float differences give the ndarray differences' bits."""
    points = _linearization_points(params, steady_plans, figure8_plan,
                                   tmp_path)
    for point in points:
        A, B = linearize(params, *point)
        A0, B0 = loop_oracle.linearize(params, *point)
        assert A.shape == (6, 6) and B.shape == (6, 3)
        assert A.tobytes() == A0.tobytes() and B.tobytes() == B0.tobytes()


def test_linearize_cross_check(params, eq_nominal):
    """Central differences vs an independent forward scheme at h/10."""
    st, u, kappa = nominal_point(eq_nominal)
    A, _ = linearize(params, st, u, kappa)
    names = ["Vx", "Vy", "r", "omega"]

    def rates(state, inp):
        rt = vehicle_derivatives(params, state, inp, kappa=kappa)
        return np.array([rt.Vx, rt.Vy, rt.r, rt.omega])

    base = rates(st, u)
    for j, name in enumerate(names):
        h = 1e-7 * max(1.0, abs(getattr(st, name)))
        fwd = (rates(st.replace(**{name: getattr(st, name) + h}), u) - base) / h
        for i in range(4):
            if abs(A[i, j]) > 1e-6:
                assert fwd[i] == pytest.approx(A[i, j], rel=1e-4)


def test_linearize_analytic_path_rows(params, eq_nominal):
    st, u, kappa = nominal_point(eq_nominal)
    A, B = linearize(params, st, u, kappa)
    S, C = math.sin(st.dpsi), math.cos(st.dpsi)
    np.testing.assert_allclose(
        A[5], [S, C, 0.0, 0.0, st.Vx * C - st.Vy * S, 0.0], atol=1e-12)
    assert np.all(B[4:] == 0.0)


def test_linearize_straight_path_row(params, eq_nominal):
    st = eq_nominal.state().replace(dpsi=0.0)
    A, _ = linearize(params, st, eq_nominal.input(), 0.0)
    np.testing.assert_allclose(
        A[5], [0.0, 1.0, 0.0, 0.0, st.Vx, 0.0], atol=1e-12)


def test_linearization_consistency(params, eq_nominal):
    st, u, kappa = nominal_point(eq_nominal)
    A, _ = linearize(params, st, u, kappa)
    rng = np.random.default_rng(7)

    def f6(state):
        rt = vehicle_derivatives(params, state, u, kappa=kappa)
        return np.array([rt.Vx, rt.Vy, rt.r, rt.omega, rt.dpsi, rt.e])

    base = f6(st)
    for _ in range(20):
        dx = rng.uniform(-1e-4, 1e-4, size=6)
        pert = st.replace(Vx=st.Vx + dx[0], Vy=st.Vy + dx[1], r=st.r + dx[2],
                          omega=st.omega + dx[3], dpsi=st.dpsi + dx[4],
                          e=st.e + dx[5])
        err = np.linalg.norm(f6(pert) - base - A @ dx)
        assert err <= 1e-6 + 10.0 * np.dot(dx, dx)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_constant_friction_gains_identical(params):
    from thermaldrift.equilibrium import quasi_steady_sweep
    traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 5.0,
                              thermal=False)
    sched = build_schedule(params, traj)
    spread = np.max(np.abs(sched.K - sched.K[0]))
    assert spread < 1e-10


def test_thermal_gains_vary(steady_schedules):
    sched = steady_schedules["thermal"]
    assert np.max(np.abs(sched.K - sched.K[0])) > 1e-3


def test_schedule_spacing(steady_schedules):
    sched = steady_schedules["thermal"]
    assert np.allclose(np.diff(sched.s_knots), 0.25)


def test_single_knot_schedule(params, eq_nominal):
    class OneNode:
        def s_span(self):
            return 0.0, 0.0

        def sample(self, s):
            return eq_nominal.state(), eq_nominal.input(), 1.0 / RADIUS

    sched = build_schedule(params, OneNode())
    assert len(sched) == 1
    assert nearest_knot(sched.s_knots, 1234.5) == 0


def test_lookup_rules(params, steady_schedules):
    sched = steady_schedules["thermal"]
    knots = sched.s_knots
    # exact knot
    assert nearest_knot(knots, 1.0) == 4
    # midpoint ties toward the smaller knot
    assert nearest_knot(knots, 1.125) == 4
    assert nearest_knot(knots, 1.1251) == 5
    # clamping
    assert nearest_knot(knots, -5.0) == 0
    assert nearest_knot(knots, 1e9) == len(sched) - 1
    assert nearest_knot(knots, math.nan) == len(sched) - 1


def test_nearest_knot_matches_searchsorted_rule(steady_schedules):
    """The bisect rule on a list of knots equals the searchsorted form of
    the same rule on the ndarray, at knots, midpoints, just beside both,
    outside the range and at NaN."""
    knots = steady_schedules["thermal"].s_knots

    def by_searchsorted(s):
        i = int(np.searchsorted(knots, s))
        if i <= 0:
            return 0
        if i >= len(knots):
            return len(knots) - 1
        return i - 1 if s - knots[i - 1] <= knots[i] - s else i

    mids = 0.5 * (knots[:-1] + knots[1:])
    probes = np.concatenate([knots, mids, np.nextafter(mids, -np.inf),
                             np.nextafter(mids, np.inf), [-5.0, 1e9, np.nan]])
    as_list = knots.tolist()
    for s in probes.tolist():
        assert nearest_knot(as_list, s) == by_searchsorted(s)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        GainSchedule(s_knots=np.array([]), K=np.zeros((0, 3, 6)),
                     ref_states=np.zeros((0, 12)), ref_inputs=np.zeros((0, 3)),
                     kappa=np.zeros(0))
    with pytest.raises(ScheduleError):
        GainSchedule(s_knots=np.array([0.0, 0.0]), K=np.zeros((2, 3, 6)),
                     ref_states=np.zeros((2, 12)), ref_inputs=np.zeros((2, 3)),
                     kappa=np.zeros(2))

