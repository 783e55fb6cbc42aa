import math
from dataclasses import replace

import numpy as np
import pytest

from thermaldrift import equilibrium
from thermaldrift.equilibrium import (
    dynamic_residual,
    find_equilibrium,
    quasi_steady_sweep,
)
from thermaldrift.errors import (
    BoundsError,
    ConvergenceError,
    InfeasibleError,
    SolverError,
)
from thermaldrift.integrate import central_differences
from thermaldrift.limits import default_limits

import loop_oracle
from conftest import BETA, RADIUS, THETA0
from model_oracle import (
    heat_generation,
    state_residual,
    sweep_residual,
    thermal_derivative,
    thermal_fixed_point,
    tire_forces,
)


def test_nominal_equilibrium_character(params, eq_nominal):
    eq = eq_nominal
    assert eq.residual_norm < 1e-8
    assert eq.tau > 0.0                       # drive torque sustains the drift
    assert eq.delta < 0.0                     # counter-steer: right steer in a left turn
    forces = tire_forces(params, eq.state(), eq.input())
    # rear tire rides near the friction circle in a drift
    assert math.hypot(forces.F_xr, forces.F_yr) > \
        0.95 * forces.mu_r * forces.F_zr
    assert eq.V == pytest.approx(eq.r * RADIUS)
    assert eq.beta == BETA


def test_residual_reevaluates(params, eq_nominal):
    st, inp = eq_nominal.state(), eq_nominal.input()
    res = dynamic_residual(params, st.Vx, st.Vy, st.r, st.omega, st.dFz,
                           st.theta_r, inp.delta, inp.tau)
    assert np.linalg.norm(res) == pytest.approx(eq_nominal.residual_norm,
                                                abs=1e-12)
    assert np.array_equal(res, state_residual(params, st, inp))


def test_newton_jacobian_equals_loop_oracle(params):
    """The float central differences give the ndarray loop's Newton
    Jacobian bit for bit, at every node of a 20 m sweep."""
    for eq in quasi_steady_sweep(params, RADIUS, BETA, THETA0,
                                 20.0).equilibria:
        cos_b, sin_b = math.cos(eq.beta), math.sin(eq.beta)

        def residual(r, omega, dFz, delta, tau):
            V = r * eq.radius
            return dynamic_residual(params, V * cos_b, V * sin_b, r, omega,
                                    dFz, eq.theta_r, delta, tau)

        z = eq.unknowns()
        J = np.array(central_differences(residual, z.tolist())).T
        J0 = loop_oracle.newton_jacobian(lambda z: residual(*z.tolist()), z)
        assert np.array_equal(J.view(np.uint64), J0.view(np.uint64))


def test_central_differences_outside_domain():
    """None at any stencil point (here only the minus step of x) gives
    None, as the oracle does."""
    def f(x, y):
        return None if x < 1.0 else (x * y, y)

    assert central_differences(f, [1.0, 2.0]) is None
    assert loop_oracle.newton_jacobian(
        lambda z: None if z[0] < 1.0 else np.array([z[0] * z[1], z[1]]),
        np.array([1.0, 2.0])) is None
    (dx, dy), (ex, ey) = central_differences(f, [2.0, 3.0])
    assert (dx, dy, ex, ey) == pytest.approx((3.0, 0.0, 2.0, 1.0))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["R+15", "R-15"])
@pytest.mark.parametrize("mu_const", [None, 0.73], ids=["thermal", "mu0.73"])
def test_sweep_matches_state_residual_oracle(params, monkeypatch, sign,
                                             mu_const):
    """A sweep whose Newton residual is rebuilt through VehicleState and
    ControlInput values, as the package once built it, gives the same
    equilibria, temperatures, heat rates and times bit for bit."""
    radius, beta = sign * RADIUS, sign * BETA
    want = quasi_steady_sweep(params, radius, beta, THETA0, 3.0,
                              mu_const=mu_const)
    monkeypatch.setattr(equilibrium, "dynamic_residual",
                        sweep_residual(radius, beta))
    got = quasi_steady_sweep(params, radius, beta, THETA0, 3.0,
                             mu_const=mu_const)
    assert got.n_nodes == want.n_nodes == 13
    assert got.equilibria == want.equilibria
    for name in ("theta", "Q", "t"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("frozen", [{"mu_const": 0.73}, {"mu_const": 0.8},
                                    {"thermal": False}],
                         ids=["mu0.73", "mu0.8", "thermal_off"])
def test_frozen_sweep_solves_one_equilibrium(params, monkeypatch, frozen):
    """With a frozen temperature the 300 m sweep solves node 0 alone; a
    solve warm-started from that root, as the next node's would be, returns
    it unchanged."""
    real = equilibrium.find_equilibrium
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "find_equilibrium", counting)
    traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 300.0, **frozen)
    assert traj.n_nodes == 1201
    assert len(calls) == 1
    eq0 = traj.equilibria[0]
    assert all(eq is eq0 for eq in traj.equilibria)
    assert np.all(traj.theta == eq0.theta_r) and np.all(traj.Q == traj.Q[0])
    assert real(params, RADIUS, BETA, eq0.theta_r,
                guess=eq0.unknowns()) == eq0


def test_hotter_tire_slower_drift(params):
    eq_cold = find_equilibrium(params, RADIUS, BETA, 30.0)
    eq_hot = find_equilibrium(params, RADIUS, BETA, 70.0)
    assert eq_hot.V < eq_cold.V
    assert eq_hot.mu_r < eq_cold.mu_r


def test_grip_driving_limit(params):
    # the built-in guess targets the drift basin; seed a grip-driving one
    V, Re = 10.0, params.vehicle.Re
    guess = [V / 60.0, V / Re, 0.0, math.radians(2.5), 200.0]
    eq = find_equilibrium(params, 60.0, 0.0, 30.0, guess=guess)
    forces = tire_forces(params, eq.state(), eq.input())
    assert abs(eq.delta) < math.radians(6.0)
    assert abs(forces.kappa_r) < 0.05


def test_precondition_errors(params):
    with pytest.raises(ValueError):
        find_equilibrium(params, 3.0, BETA, 30.0)
    with pytest.raises(ValueError):
        find_equilibrium(params, 15.0, math.radians(-85.0), 30.0)


@pytest.mark.parametrize("radius, beta_deg, theta, error, message", [
    (5.0, -5.0, 30.0, InfeasibleError,
     "no equilibrium at radius=5.0 m, beta=-0.087 rad, theta=30.0 degC: "
     "rear tire saturated with residual 3.27e+01"),
    (15.0, -5.0, 0.0, ConvergenceError,
     "equilibrium solve stalled with residual 5.23e+01"),
], ids=["saturated", "stalled"])
def test_failure_classification(params, radius, beta_deg, theta, error,
                                message):
    """A failed solve is infeasible when the rear tire's combined-slip
    demand at the stalled point is past full sliding, and stalled
    otherwise."""
    with pytest.raises(SolverError) as info:
        find_equilibrium(params, radius, math.radians(beta_deg), theta)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("sign, limit, message", [
    (1.0, dict(tau_max=1000.0),
     "equilibrium torque 2154 N m exceeds the torque limit"),
    (-1.0, dict(delta_max=math.radians(10.0)),
     "equilibrium steering 20.1 deg exceeds the steering limit"),
], ids=["torque", "steering"])
def test_equilibrium_beyond_limit(params, sign, limit, message):
    """A converged equilibrium outside the actuator limits raises
    BoundsError naming the limit (the mirrored circle steers positive)."""
    with pytest.raises(BoundsError) as info:
        find_equilibrium(params, sign * RADIUS, sign * BETA, THETA0,
                         limits=replace(default_limits(), **limit))
    assert str(info.value) == message


def test_sweep_deterministic(params):
    t1 = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 20.0)
    t2 = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 20.0)
    assert np.array_equal(t1.theta, t2.theta)
    assert np.array_equal(t1.t, t2.t)
    assert all(a == b for a, b in zip(t1.equilibria, t2.equilibria))


def test_sweep_mu_consistency(params):
    traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 10.0)
    thp = params.thermal
    for k, eq in enumerate(traj.equilibria):
        assert eq.mu_r == thp.mu_r1 * traj.theta[k] + thp.mu_r0
        assert eq.residual_norm < 1e-8
    assert np.all(np.diff(traj.t) > 0.0)


def test_sweep_monotone_toward_fixed_point(params, steady_plans):
    traj = steady_plans["thermal"]
    fp = thermal_fixed_point(params, RADIUS, BETA)
    assert THETA0 < fp.theta_r
    assert np.all(np.diff(traj.theta) >= 0.0)
    assert traj.theta[-1] <= fp.theta_r + 1e-6
    # approaches the fixed point over the 300 m sweep
    assert fp.theta_r - traj.theta[-1] < 0.5 * (fp.theta_r - THETA0)


def test_fixed_point_is_thermally_stationary(params):
    fp = thermal_fixed_point(params, RADIUS, BETA)
    forces = tire_forces(params, fp.state(), fp.input())
    Q = heat_generation(params.thermal, fp.state().Vx, forces.alpha_r,
                        forces.kappa_r, forces.F_xr, forces.F_yr, forces.F_zr)
    assert thermal_derivative(params.thermal, fp.theta_r, Q) == \
        pytest.approx(0.0, abs=1e-6)


def test_sweep_step_refinement(params, monkeypatch):
    def sweep(ds):
        monkeypatch.setattr(equilibrium, "_DS", ds)
        traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 40.0)
        assert traj.ds == ds
        return traj

    coarse, fine, finest = sweep(0.5), sweep(0.25), sweep(0.125)
    e1 = abs(coarse.theta[-1] - finest.theta[-1])
    e2 = abs(fine.theta[-1] - finest.theta[-1])
    assert e2 < e1  # first-order update converges under refinement
    assert e1 < 0.1


def test_thermal_disabled_constant_inputs(params):
    traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 20.0,
                              thermal=False)
    deltas = np.array([eq.delta for eq in traj.equilibria])
    taus = np.array([eq.tau for eq in traj.equilibria])
    assert np.max(np.abs(np.diff(deltas))) < 1e-9
    assert np.max(np.abs(np.diff(taus))) < 1e-9
    assert np.all(traj.theta == THETA0)


def test_mu_const_maps_to_equivalent_temperature(params):
    traj = quasi_steady_sweep(params, RADIUS, BETA, THETA0, 5.0, mu_const=0.8)
    thp = params.thermal
    theta_eq = (0.8 - thp.mu_r0) / thp.mu_r1
    assert np.all(traj.theta == theta_eq)
    assert traj.equilibria[0].mu_r == pytest.approx(0.8, abs=1e-12)


def test_sweep_error_names_node(params):
    # an infeasible sideslip fails at the first node with its index
    with pytest.raises(SolverError, match="node 0"):
        quasi_steady_sweep(params, RADIUS, math.radians(-75.0), THETA0, 5.0)


def test_sweep_validation(params):
    with pytest.raises(ValueError):
        quasi_steady_sweep(params, RADIUS, BETA, THETA0, 0.1)
