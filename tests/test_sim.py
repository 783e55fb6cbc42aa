import math

import numpy as np
import pytest

from thermaldrift.control import (
    LqrWeights,
    OperatingPoint,
    closed_loop_poles,
    linearize,
    linearize_stack,
    operating_points,
)
from thermaldrift.figure8 import plan_figure8
from thermaldrift.model import ControlInput, VehicleState, heat_generation, tire_forces
from thermaldrift.paths import CirclePath
from thermaldrift.sim import (
    SIM_COLUMNS,
    Scenario,
    _match,
    compare,
    comparison_table,
    pole_trace,
    run,
)

from conftest import ARC, RADIUS, THETA0


def short_scenario(params, steady_plans, steady_schedules, **kwargs):
    traj = steady_plans["thermal"]
    defaults = dict(
        name="short", schedule=steady_schedules["thermal"],
        path=CirclePath(RADIUS), plant=params,
        initial_state=traj.sample(0.0)[0].replace(theta_r=THETA0),
        s_final=30.0)
    defaults.update(kwargs)
    return Scenario(**defaults)


def test_scenario_validation(params, steady_plans, steady_schedules):
    with pytest.raises(ValueError):
        short_scenario(params, steady_plans, steady_schedules, h_sim=0.0)
    with pytest.raises(ValueError):
        short_scenario(params, steady_plans, steady_schedules, s_final=-1.0)


def test_run_deterministic(params, steady_plans, steady_schedules):
    sc = short_scenario(params, steady_plans, steady_schedules)
    r1, r2 = run(sc), run(sc)
    assert np.array_equal(r1.series, r2.series)
    assert r1.max_abs_e == r2.max_abs_e
    assert r1.status == r2.status == "finished"


def test_metrics_recomputable(steady_results):
    res = steady_results["thermal"]
    e = res.column("e")
    assert res.max_abs_e == float(np.max(np.abs(e)))
    assert res.rms_e == float(np.sqrt(np.mean(e ** 2)))
    assert res.final_theta == res.column("theta_r")[-1]


def test_recorded_inputs_respect_limits(steady_results, params):
    from thermaldrift.limits import default_limits
    lim = default_limits()
    for res in steady_results.values():
        assert np.all(res.column("delta") >= lim.delta_min - 1e-12)
        assert np.all(res.column("delta") <= lim.delta_max + 1e-12)
        assert np.all(res.column("tau") >= lim.tau_min - 1e-9)
        assert np.all(res.column("tau") <= lim.tau_max + 1e-9)
        assert np.all(res.column("Fxf") <= lim.Fxf_max + 1e-12)


def test_plant_heat_non_negative(steady_results, params):
    res = steady_results["thermal"]
    idx = np.arange(0, res.series.shape[0], 500)
    for i in idx:
        row = {name: res.series[i, j] for j, name in enumerate(SIM_COLUMNS)}
        state = VehicleState(Vx=row["Vx"], Vy=row["Vy"], r=row["r"],
                             omega=row["omega"], dFz=row["dFz"],
                             theta_r=row["theta_r"])
        inp = ControlInput(delta=row["delta"], Fxf=row["Fxf"], tau=row["tau"])
        forces = tire_forces(params, state, inp)
        Q = heat_generation(params.thermal, state.Vx, forces.alpha_r,
                            forces.kappa_r, forces.F_xr, forces.F_yr,
                            forces.F_zr)
        assert Q >= 0.0


def test_open_loop_unstable(params, steady_plans, steady_schedules):
    """The drift equilibrium is unstable: feedforward only, a 1 cm lateral
    perturbation grows until the spin-out guard fires."""
    traj = steady_plans["thermal"]
    st = traj.sample(0.0)[0].replace(theta_r=THETA0, Y=0.01)
    sc = Scenario(name="openloop", schedule=steady_schedules["thermal"],
                  path=CirclePath(RADIUS), plant=params, initial_state=st,
                  s_final=ARC, gains_enabled=False)
    res = run(sc)
    assert res.status == "spin_out"
    assert res.max_abs_e > 1.0
    # closed loop absorbs the same perturbation
    closed = run(Scenario(name="closed", schedule=steady_schedules["thermal"],
                          path=CirclePath(RADIUS), plant=params,
                          initial_state=st, s_final=100.0))
    assert closed.status == "finished"
    assert closed.max_abs_e < 0.1


def test_compare_reports_failures_inline(params, steady_plans,
                                         steady_schedules):
    good = short_scenario(params, steady_plans, steady_schedules)
    results = compare([good])
    assert set(results) == {"short"}
    assert results["short"].status == "finished"
    table = comparison_table(results)
    assert "short" in table and "finished" in table
    with pytest.raises(Exception):
        compare([])


def test_matched_pole_trace_stable(steady_schedules, params, steady_plans):
    trace = pole_trace(steady_schedules["thermal"], params)
    assert trace.poles.shape == (len(steady_schedules["thermal"]), 6)
    assert trace.spectral_abscissa < 0.0


def test_constant_mu_matched_spectra_identical(steady_schedules, params):
    """Constant-mu schedule on the matching constant-mu plant: identical
    spectra at every knot."""
    sched = steady_schedules["mu0.8"]
    theta_eq = float(sched.theta[0])
    trace = pole_trace(sched, params, plant_theta=theta_eq)
    spread = np.max(np.abs(trace.poles - trace.poles[0]))
    assert spread < 1e-8


def test_pole_trace_plant_ref_matches_matched_case(steady_schedules, params,
                                                   steady_plans):
    """For the thermal schedule, evaluating at the thermal plan's operating
    points is the matched case, so both call forms agree."""
    sched = steady_schedules["thermal"]
    a = pole_trace(sched, params)
    plant_lin = linearize_stack(
        params, operating_points(steady_plans["thermal"], sched.s_knots))
    b = pole_trace(sched, params, plant_lin=plant_lin)
    assert np.allclose(a.poles, b.poles, atol=1e-9)


def _pole_trace_per_knot(schedule, plant, plant_theta=None, plant_ref=None):
    """pole_trace as one linearize/eigvals/_match step per knot: the oracle
    for the stacked version."""
    knots = schedule.s_knots
    theta = (schedule.theta if plant_theta is None else np.broadcast_to(
        np.asarray(plant_theta, dtype=float), knots.shape))
    poles = np.empty((len(knots), 6), dtype=complex)
    prev = None
    for i in range(len(knots)):
        if plant_ref is not None:
            state, inp, kappa = plant_ref.sample(float(knots[i]))
        else:
            ref = schedule.ref_states[i]
            state = VehicleState(Vx=ref[0], Vy=ref[1], r=ref[2], omega=ref[3],
                                 dFz=ref[4], theta_r=float(theta[i]), e=ref[6],
                                 s=ref[7], dpsi=ref[8], X=ref[9], Y=ref[10],
                                 psi=ref[11])
            u = schedule.ref_inputs[i]
            inp = ControlInput(delta=u[0], Fxf=u[1], tau=u[2])
            kappa = float(schedule.kappa[i])
        sys = linearize(plant, OperatingPoint(state=state, input=inp,
                                              kappa=kappa))
        eig = closed_loop_poles(sys.A, sys.B, schedule.K[i])
        poles[i] = eig if prev is None else _match(prev, eig)
        prev = poles[i]
    return poles


@pytest.mark.parametrize("form", ["matched", "plant_theta", "plant_lin"])
def test_pole_trace_matches_per_knot_loop(steady_schedules, steady_plans,
                                          params, form):
    sched = steady_schedules["mu0.8"]
    plan = steady_plans["thermal"]
    if form == "matched":
        kwargs = oracle_kwargs = {}
    elif form == "plant_theta":
        kwargs = oracle_kwargs = {
            "plant_theta": np.linspace(30.0, 90.0, len(sched))}
    else:
        # the CLI's form: the thermal plan, linearized once for all schedules
        kwargs = {"plant_lin": linearize_stack(
            params, operating_points(plan, sched.s_knots))}
        oracle_kwargs = {"plant_ref": plan}
    trace = pole_trace(sched, params, **kwargs)
    oracle = _pole_trace_per_knot(sched, params, **oracle_kwargs)
    np.testing.assert_allclose(trace.poles, oracle, rtol=0.0, atol=1e-10)


def test_pole_trace_rejects_wrong_stack(steady_schedules, params, eq_nominal):
    sched = steady_schedules["thermal"]
    A, B = linearize_stack(params, [OperatingPoint(
        eq_nominal.state(), eq_nominal.input(), 1.0 / RADIUS)])
    with pytest.raises(ValueError, match="1 plant A and 1 B matrices"):
        pole_trace(sched, params, plant_lin=(A, B))
    with pytest.raises(ValueError, match="not both"):
        pole_trace(sched, params, plant_theta=60.0, plant_lin=(A, B))


@pytest.mark.slow
def test_figure8_closed_loop_tracks(params):
    """The README's figure-8 plan, tracked on the thermal plant as
    ``scripts/run_figure8.py`` does, reaches the end of the course."""
    plan = plan_figure8(params, theta0=THETA0, weights=LqrWeights.tracking())
    res = run(plan.scenario(params, THETA0))
    assert res.status == "finished", res.detail
    assert res.max_abs_e < 0.05
