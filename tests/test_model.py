import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermaldrift import equilibrium, sim
from thermaldrift.control import build_schedule
from thermaldrift.equilibrium import find_equilibrium, quasi_steady_sweep
from thermaldrift.errors import (
    DegenerateLoadError,
    ModelDomainError,
    VelocityFloorError,
)
from thermaldrift.limits import default_limits
from thermaldrift.model import (
    ControlInput,
    VehicleState,
    friction_coefficient,
    scalar_rates,
    vehicle_derivatives,
)
from thermaldrift.params import default_params
from thermaldrift.paths import CirclePath

from model_oracle import (
    fiala_lateral_force,
    front_cornering_stiffness,
    front_slip_angle,
    heat_generation,
    rear_combined_forces,
    rear_slip_quantities,
    thermal_derivative,
    tire_forces,
    vertical_loads,
    weight_transfer_derivative,
)

P = default_params()
VP, TP, THP = P.vehicle, P.tire, P.thermal


# ---------------------------------------------------------------------------
# vertical loads and weight transfer
# ---------------------------------------------------------------------------

def test_static_loads():
    F_zf, F_zr = vertical_loads(VP, 0.0)
    assert F_zf == pytest.approx(VP.b * VP.m * VP.g / VP.L)
    assert F_zf == pytest.approx(7367, abs=5)
    assert F_zr == pytest.approx(7308, abs=5)


@given(st.floats(-7000.0, 7000.0))
def test_load_conservation(dFz):
    F_zf, F_zr = vertical_loads(VP, dFz)
    assert F_zf + F_zr == pytest.approx(VP.m * VP.g, abs=1e-9)


def test_load_linearity():
    f0, r0 = vertical_loads(VP, 0.0)
    f1, r1 = vertical_loads(VP, 1000.0)
    assert r1 - r0 == pytest.approx(1000.0)
    assert f0 - f1 == pytest.approx(1000.0)


def test_degenerate_load_error():
    with pytest.raises(ModelDomainError):
        vertical_loads(VP, VP.b * VP.m * VP.g / VP.L + 1.0)


def test_weight_transfer_fixed_point():
    F_xr, F_yf, delta = 4000.0, -2000.0, -0.3
    dFz = (VP.h_cg / VP.L) * (F_xr - F_yf * math.sin(delta))
    assert weight_transfer_derivative(VP, dFz, F_xr, F_yf, delta) == \
        pytest.approx(0.0, abs=1e-9)


def test_weight_transfer_value():
    # dFz = 0, F_xr = 5 kN, delta = 0: rate = Kz*(h_cg/L)*F_xr
    rate = weight_transfer_derivative(VP, 0.0, 5000.0, 0.0, 0.0)
    assert rate == pytest.approx(5.0 * (0.45 / 2.45) * 5000.0, rel=1e-12)
    assert rate == pytest.approx(4592, abs=2)


# ---------------------------------------------------------------------------
# slip angles and front tire
# ---------------------------------------------------------------------------

def test_front_slip_angle_cases():
    assert front_slip_angle(10.0, 0.0, 0.0, 0.0, VP.a) == 0.0
    # numerator cancellation: Vy = -a*r makes alpha_f = -delta
    assert front_slip_angle(10.0, -VP.a * 0.7, 0.7, 0.25, VP.a) == \
        pytest.approx(-0.25)
    got = front_slip_angle(8.0, -5.0, 0.5, -0.3, 1.22)
    assert got == pytest.approx(math.atan((-5.0 + 1.22 * 0.5) / 8.0) + 0.3)
    assert got == pytest.approx(-0.20188, abs=1e-5)


def test_velocity_floor():
    with pytest.raises(VelocityFloorError):
        front_slip_angle(0.4, 0.0, 0.0, 0.0, VP.a)
    with pytest.raises(VelocityFloorError):
        rear_slip_quantities(VP, 0.1, 0.0, 0.0, 10.0)


def test_front_cornering_stiffness():
    assert front_cornering_stiffness(TP, 7367.0) == \
        pytest.approx(34.50 * 7367.0 - 18215.0)
    with pytest.raises(ModelDomainError):
        front_cornering_stiffness(TP, 100.0)  # below the sign boundary


@given(st.floats(-1.2, 1.2))
def test_fiala_odd(alpha):
    C, Fmax = 2.3e5, 7000.0
    assert fiala_lateral_force(C, Fmax, -alpha) == \
        pytest.approx(-fiala_lateral_force(C, Fmax, alpha), abs=1e-9)


def test_fiala_continuity_at_slide():
    C, Fmax = 2.3e5, 7000.0
    a_slide = math.atan(3.0 * Fmax / C)
    below = fiala_lateral_force(C, Fmax, a_slide * (1.0 - 1e-12))
    above = fiala_lateral_force(C, Fmax, a_slide * (1.0 + 1e-12))
    assert abs(below - above) <= 1e-9 * Fmax
    assert above == -Fmax


def test_fiala_slope_at_origin():
    # the quadratic |tan a| term biases a central difference by C^2/(3Fmax)*h,
    # so h must be small enough to push that below the tolerance
    C, Fmax = 2.3e5, 7000.0
    h = 1e-9
    slope = (fiala_lateral_force(C, Fmax, h)
             - fiala_lateral_force(C, Fmax, -h)) / (2.0 * h)
    assert slope == pytest.approx(-C, rel=1e-6)


# ---------------------------------------------------------------------------
# rear tire
# ---------------------------------------------------------------------------

def test_rear_slip_cases():
    a_r, k_r = rear_slip_quantities(VP, 10.0, VP.b * 0.8, 0.8, 10.0 / VP.Re)
    assert (a_r, k_r) == (0.0, 0.0)
    a_r, k_r = rear_slip_quantities(VP, 10.0, -6.0, 0.8, 14.0 / VP.Re)
    assert a_r == pytest.approx(math.atan(-0.6984), abs=1e-4)
    assert k_r == pytest.approx(math.atan(0.4))
    # locked wheel
    _, k_r = rear_slip_quantities(VP, 10.0, 0.0, 0.0, 0.0)
    assert k_r == pytest.approx(-math.pi / 4.0)


def test_rear_zero_slip_zero_force():
    assert rear_combined_forces(TP, 0.95, 7308.0, 0.0, 0.0) == \
        (0.0, 0.0, 0.0, False)


def test_rear_full_sliding_saturates():
    F_xr, F_yr, f, saturated = rear_combined_forces(TP, 0.95, 7308.0, -0.6,
                                                    0.38)
    mag = math.hypot(F_xr, F_yr)
    assert f > 3.0 * 0.95 * 7308.0 and saturated
    assert mag == pytest.approx(0.95 * 7308.0, rel=1e-12)


def test_rear_component_decomposition():
    # scalar decomposition oracle: F * (gx/f, -gy/f) term by term
    mu, Fz, a_r, k_r = 0.95, 7308.0, -0.05, 0.05
    gx = TP.Cx * k_r / (k_r + 1.0)
    gy = TP.Cy * math.tan(a_r) / (k_r + 1.0)
    f = math.hypot(gx, gy)
    lim = mu * Fz
    assert f <= 3.0 * lim  # on the cubic branch, below full sliding
    F = f - f * f / (3.0 * lim) + f ** 3 / (27.0 * lim * lim)
    F_xr, F_yr, f_got, saturated = rear_combined_forces(TP, mu, Fz, a_r, k_r)
    assert f_got == pytest.approx(f, rel=1e-12)
    assert not saturated
    assert F_xr == pytest.approx(F * gx / f, rel=1e-12)
    assert F_yr == pytest.approx(-F * gy / f, rel=1e-12)


@given(st.floats(-1.0, 1.0), st.floats(-0.75, 1.5),
       st.floats(0.5, 1.1), st.floats(1000.0, 12000.0))
@settings(max_examples=300)
def test_friction_circle(alpha_r, kappa_r, mu, Fz):
    F_xr, F_yr, *_ = rear_combined_forces(TP, mu, Fz, alpha_r, kappa_r)
    assert math.hypot(F_xr, F_yr) <= mu * Fz * (1.0 + 1e-9)


@given(st.floats(-1.0, 1.0))
def test_rear_oddness_in_alpha(alpha_r):
    # the kappa/(kappa+1) mapping in the force law is not odd in kappa, so
    # sign symmetry is only exact on the pure-lateral slice (kappa = 0)
    F_xr, F_yr, *_ = rear_combined_forces(TP, 0.9, 7308.0, alpha_r, 0.0)
    G_xr, G_yr, *_ = rear_combined_forces(TP, 0.9, 7308.0, -alpha_r, 0.0)
    scale = max(1.0, abs(F_xr), abs(F_yr))
    assert G_xr == pytest.approx(-F_xr, abs=1e-9 * scale)
    assert G_yr == pytest.approx(-F_yr, abs=1e-9 * scale)


def test_combined_force_continuity_at_saturation():
    mu, Fz = 0.9, 7308.0
    lim = mu * Fz
    # choose alpha so that f is exactly at the 3*mu*Fz boundary (kappa = 0)
    tan_a = 3.0 * lim / TP.Cy
    a_r = math.atan(tan_a)
    below = rear_combined_forces(TP, mu, Fz, a_r * (1 - 1e-12), 0.0)
    above = rear_combined_forces(TP, mu, Fz, a_r * (1 + 1e-12), 0.0)
    assert abs(below[1] - above[1]) <= 1e-6 * lim
    assert (below[3], above[3]) == (False, True)


# ---------------------------------------------------------------------------
# thermal model
# ---------------------------------------------------------------------------

def test_friction_map_values():
    assert friction_coefficient(THP, 0.0) == 1.070
    assert friction_coefficient(THP, 30.0) == \
        pytest.approx(1.070 - 3.967e-3 * 30.0, abs=1e-12)
    assert friction_coefficient(THP, 70.0) == pytest.approx(0.7923, abs=1e-4)
    with pytest.raises(ModelDomainError):
        friction_coefficient(THP, 1000.0)


def test_heat_generation_cases():
    assert heat_generation(THP, 0.0, 0.0, 0.0, 0.0, 0.0, 7308.0) == 0.0
    # pure rolling: only rolling resistance
    assert heat_generation(THP, 10.0, 0.0, 0.0, 0.0, 0.0, 7308.0) == \
        pytest.approx(0.01 * 7308.0 * 10.0)


@given(st.floats(-0.9, 0.9), st.floats(-0.7, 1.5), st.floats(1.0, 25.0))
@settings(max_examples=300)
def test_heat_non_negative(alpha_r, kappa_r, Vx):
    if kappa_r <= -0.999:
        return
    F_xr, F_yr, *_ = rear_combined_forces(TP, 0.9, 7308.0, alpha_r, kappa_r)
    Q = heat_generation(THP, Vx, alpha_r, kappa_r, F_xr, F_yr, 7308.0)
    assert Q >= 0.0


def test_thermal_derivative_cases():
    assert thermal_derivative(THP, THP.theta_out, 0.0) == 0.0
    assert thermal_derivative(THP, THP.theta_out, 7620.0) == \
        pytest.approx(7620.0 / 4905.0)


@given(st.floats(0.0, 120.0), st.floats(0.0, 120.0), st.floats(0.0, 2e4))
def test_thermal_contraction(t1, t2, Q):
    d1 = thermal_derivative(THP, t1, Q)
    d2 = thermal_derivative(THP, t2, Q)
    assert d1 - d2 == pytest.approx(-THP.KA_tire / THP.C_tire * (t1 - t2),
                                    abs=1e-9)


# ---------------------------------------------------------------------------
# assembled derivatives
# ---------------------------------------------------------------------------

STATE = VehicleState(Vx=9.0, Vy=-6.5, r=0.6, omega=40.0, dFz=400.0,
                     theta_r=35.0, e=0.1, s=12.0, dpsi=-0.6, psi=1.0,
                     X=3.0, Y=-2.0)
INPUT = ControlInput(delta=-0.3, Fxf=0.0, tau=900.0)


def test_derivative_purity():
    r1 = vehicle_derivatives(P, STATE, INPUT, kappa=1.0 / 15.0)
    r2 = vehicle_derivatives(P, STATE, INPUT, kappa=1.0 / 15.0)
    assert r1 == r2


def test_path_rates_straight():
    st_ = STATE.replace(dpsi=0.0, e=0.5)
    rates = vehicle_derivatives(P, st_, INPUT, kappa=0.0)
    assert rates.s == pytest.approx(st_.Vx)
    assert rates.e == pytest.approx(st_.Vy)


def test_path_rates_quarter_turn():
    st_ = STATE.replace(dpsi=math.pi / 2.0)
    rates = vehicle_derivatives(P, st_, INPUT, kappa=0.0)
    assert rates.s == pytest.approx(-st_.Vy)
    assert rates.e == pytest.approx(st_.Vx)


def test_path_singularity():
    st_ = STATE.replace(e=15.0)
    with pytest.raises(ModelDomainError):
        vehicle_derivatives(P, st_, INPUT, kappa=1.0 / 15.0)


def test_pose_rates():
    rates = vehicle_derivatives(P, STATE, INPUT, kappa=0.0)
    assert rates.X == pytest.approx(STATE.Vx * math.cos(STATE.psi)
                                    - STATE.Vy * math.sin(STATE.psi))
    assert rates.Y == pytest.approx(STATE.Vx * math.sin(STATE.psi)
                                    + STATE.Vy * math.cos(STATE.psi))
    assert rates.psi == STATE.r


def test_tire_forces_respect_circle():
    forces = tire_forces(P, STATE, INPUT)
    assert math.hypot(forces.F_xr, forces.F_yr) <= \
        forces.mu_r * forces.F_zr * (1.0 + 1e-9)
    assert forces.F_zf + forces.F_zr == pytest.approx(VP.m * VP.g)


def test_speed_beta_parameterization():
    s2 = VehicleState.from_speed_beta(STATE.V, STATE.beta, r=STATE.r,
                                      omega=STATE.omega, dFz=STATE.dFz,
                                      theta_r=STATE.theta_r)
    assert s2.Vx == pytest.approx(STATE.Vx)
    assert s2.Vy == pytest.approx(STATE.Vy)


# ---------------------------------------------------------------------------
# the flat kernel against the helper chain
# ---------------------------------------------------------------------------

def helper_chain_rates(params, state, inp):
    """Body and pose rates, the heat rate Q and the rear saturation flag
    assembled from the oracle's :func:`tire_forces` and per-quantity
    helpers, in the order :func:`scalar_rates` inlines them: what the kernel
    is pinned to, bit for bit."""
    vp, thp = params.vehicle, params.thermal
    fc = tire_forces(params, state, inp)
    sin_d, cos_d = math.sin(inp.delta), math.cos(inp.delta)
    dVx = ((-fc.F_yf * sin_d + inp.Fxf * cos_d + fc.F_xr) / vp.m
           + state.r * state.Vy)
    dVy = ((fc.F_yf * cos_d + inp.Fxf * sin_d + fc.F_yr) / vp.m
           - state.r * state.Vx)
    dr = ((vp.a * fc.F_yf * cos_d + vp.a * inp.Fxf * sin_d
           - vp.b * fc.F_yr) / vp.Iz)
    domega = (inp.tau - vp.Re * fc.F_xr) / vp.J
    ddFz = weight_transfer_derivative(vp, state.dFz, fc.F_xr, fc.F_yf,
                                      inp.delta)
    Q = heat_generation(thp, state.Vx, fc.alpha_r, fc.kappa_r,
                        fc.F_xr, fc.F_yr, fc.F_zr)
    dtheta = thermal_derivative(thp, state.theta_r, Q)
    sin_psi, cos_psi = math.sin(state.psi), math.cos(state.psi)
    return (dVx, dVy, dr, domega, ddFz, dtheta,
            state.Vx * cos_psi - state.Vy * sin_psi,
            state.Vx * sin_psi + state.Vy * cos_psi, Q, fc.saturated)


def kernel_rates(params, state, inp):
    return scalar_rates(params, state.Vx, state.Vy, state.r, state.psi,
                        state.omega, state.dFz, state.theta_r,
                        inp.delta, inp.Fxf, inp.tau)


def adapter_rates(params, state, inp):
    rt = vehicle_derivatives(params, state, inp)
    return (rt.Vx, rt.Vy, rt.r, rt.omega, rt.dFz, rt.theta_r, rt.X, rt.Y)


def outcome(fn, *args):
    """The rates, or the type and message of the error raised."""
    try:
        return fn(*args)
    except ModelDomainError as exc:
        return type(exc), str(exc)


def assert_pinned(params, state, inp):
    """Kernel, adapter and helper chain agree exactly (no tolerance).  The
    adapter returns no Q and no saturation flag; an error outcome is a pair,
    which the slice keeps."""
    want = outcome(helper_chain_rates, params, state, inp)
    assert outcome(kernel_rates, params, state, inp) == want
    assert outcome(adapter_rates, params, state, inp) == want[:8]


LIM = default_limits()
#: drift equilibria on both R = 15 m circles across the friction map's range
EQUILIBRIA = [find_equilibrium(P, sign * 15.0, sign * math.radians(-40.0),
                               theta)
              for sign in (1.0, -1.0)
              for theta in (0.0, 30.0, 60.0, 90.0, 120.0)]


@given(st.sampled_from(EQUILIBRIA), st.tuples(*[st.floats(0.8, 1.2)] * 6),
       st.floats(-math.pi, math.pi), st.floats(0.0, 120.0),
       st.floats(sim._FXF_MIN, sim._FXF_MAX),
       st.floats(LIM.tau_min, LIM.tau_max))
@settings(max_examples=300, deadline=None)
def test_scalar_rates_match_helper_chain(eq, f, psi, theta, Fxf, tau):
    """Around the R = +-15 m drift equilibria at 0-120 degC."""
    st0 = eq.state()
    state = VehicleState(Vx=st0.Vx * f[0], Vy=st0.Vy * f[1], r=st0.r * f[2],
                         omega=st0.omega * f[3], dFz=st0.dFz * f[4],
                         theta_r=theta, psi=psi)
    assert_pinned(P, state, ControlInput(delta=eq.delta * f[5], Fxf=Fxf,
                                         tau=tau))


def test_scalar_rates_match_helper_chain_on_run_states(monkeypatch):
    """Every point the simulator's RK4 stages and the sweep's Newton
    Jacobians evaluate, in one short closed-loop run and one sweep."""
    seen_sim, seen_eq = [], []
    kernel, residual = sim.scalar_rates, equilibrium.dynamic_residual

    def recording_kernel(params, Vx, Vy, r, psi, omega, dFz, theta_r, delta,
                         Fxf, tau):
        rates = kernel(params, Vx, Vy, r, psi, omega, dFz, theta_r, delta,
                       Fxf, tau)
        seen_sim.append((VehicleState(Vx=Vx, Vy=Vy, r=r, omega=omega,
                                      dFz=dFz, theta_r=theta_r, psi=psi),
                         ControlInput(delta=delta, Fxf=Fxf, tau=tau), rates))
        return rates

    def recording_residual(params, Vx, Vy, r, omega, dFz, theta_r, delta,
                           tau):
        seen_eq.append((VehicleState(Vx=Vx, Vy=Vy, r=r, omega=omega, dFz=dFz,
                                     theta_r=theta_r),
                        ControlInput(delta=delta, Fxf=0.0, tau=tau)))
        return residual(params, Vx, Vy, r, omega, dFz, theta_r, delta, tau)

    monkeypatch.setattr(sim, "scalar_rates", recording_kernel)
    monkeypatch.setattr(equilibrium, "dynamic_residual", recording_residual)
    traj = quasi_steady_sweep(P, 15.0, math.radians(-40.0), 30.0, 3.0)
    res = sim.run(sim.Scenario(
        name="pin", schedule=build_schedule(P, traj),
        path=CirclePath(15.0), plant=P,
        initial_state=traj.sample(0.0)[0].replace(theta_r=20.0, Vy=-5.5),
        s_final=3.0))
    assert res.status == "finished"
    assert len(seen_sim) > 1000 and len(seen_eq) > 100

    for state, inp, rates in seen_sim:
        assert_pinned(P, state, inp)
        assert rates == helper_chain_rates(P, state, inp)
    for state, inp in seen_eq:
        assert_pinned(P, state, inp)


@pytest.mark.parametrize("eq", EQUILIBRIA,
                         ids=[f"R{eq.radius:+g}-{eq.theta_r:g}C"
                              for eq in EQUILIBRIA])
def test_sweep_heat_is_kernel_heat(eq):
    """The sweep saves the kernel's Q at each node and steps the
    temperature with the kernel's dtheta/dt; both equal the helper chain's."""
    traj = quasi_steady_sweep(P, eq.radius, eq.beta, eq.theta_r, 0.5)
    assert traj.equilibria[0] == eq
    for k, node in enumerate(traj.equilibria):
        state, inp = node.state(), node.input()
        Q = kernel_rates(P, state, inp)[8]
        assert Q == helper_chain_rates(P, state, inp)[8]
        assert traj.Q[k] == Q
        if k + 1 < traj.n_nodes:
            dtheta = thermal_derivative(THP, traj.theta[k], Q)
            assert traj.theta[k + 1] == traj.theta[k] + 0.25 / node.V * dtheta


_STATIC_FRONT = VP.b * VP.m * VP.g / VP.L
_STATIC_REAR = VP.a * VP.m * VP.g / VP.L

#: (case, params, state changes, error type, message pattern); the last two
#: cases break two guards at once and expect the first in the helpers' order
GUARDS = [
    ("velocity floor", P, dict(Vx=0.3), VelocityFloorError,
     r"Vx=0\.300 m/s below the 0\.5 m/s slip-model floor"),
    ("F_zf <= 0", P, dict(dFz=_STATIC_FRONT + 1.0), DegenerateLoadError,
     r"axle load non-positive \(F_zf=-1\.0 N"),
    ("F_zr <= 0", P, dict(dFz=-_STATIC_REAR - 1.0), DegenerateLoadError,
     r"axle load non-positive \(F_zf=\d+\.\d N, F_zr=-1\.0 N\)"),
    ("kappa_r <= -1", P, dict(omega=-30.0), ModelDomainError,
     r"rear slip ratio -1\.\d+ <= -1"),
    ("mu_r <= 0", P, dict(theta_r=300.0), ModelDomainError,
     r"friction map gives mu_r=-0\.\d+ at theta=300\.0 degC"),
    ("C_alpha <= 0", replace(P, tire=replace(P.tire, C_alpha0=-1e6)), {},
     ModelDomainError, r"front cornering stiffness -\d+\.\d N/rad non-positive"),
    ("loads before floor", P, dict(Vx=0.3, dFz=_STATIC_FRONT + 1.0),
     DegenerateLoadError, r"axle load non-positive \(F_zf=-1\.0 N"),
    ("floor before friction", P, dict(Vx=0.3, theta_r=300.0),
     VelocityFloorError, r"Vx=0\.300 m/s below"),
]


@pytest.mark.parametrize("case, params, change, error, message", GUARDS,
                         ids=[g[0] for g in GUARDS])
def test_scalar_rates_guards(case, params, change, error, message):
    """Each guard fires in the kernel, the adapter and the helper chain
    with the same exception type and message."""
    state = STATE.replace(**change)
    raised = []
    for fn in (kernel_rates, adapter_rates, helper_chain_rates):
        with pytest.raises(error, match=message) as info:
            fn(params, state, INPUT)
        raised.append((type(info.value), str(info.value)))
    assert raised[0][0] is error
    assert raised[0] == raised[1] == raised[2]


@pytest.mark.parametrize("scale, saturated", [
    (0.0, False), (1.0 - 1e-12, False), (1.0 + 1e-12, True),
], ids=["zero slip", "below full sliding", "past full sliding"])
def test_scalar_rates_flag_full_sliding(scale, saturated):
    """The kernel's last value is its rear brush law's branch: False at zero
    slip and on the cubic, True past f = 3*mu_r*F_zr.  The wheel rolls
    (kappa_r = 0), so the demand is f = Cy*tan(alpha_r)."""
    Vx, theta = 10.0, 30.0
    limit = friction_coefficient(THP, theta) * _STATIC_REAR
    state = VehicleState(Vx=Vx, Vy=scale * Vx * 3.0 * limit / TP.Cy, r=0.0,
                         omega=Vx / VP.Re, dFz=0.0, theta_r=theta)
    assert kernel_rates(P, state, INPUT)[9] is saturated
    assert_pinned(P, state, INPUT)
