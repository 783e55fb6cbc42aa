import math

import numpy as np
import pytest

from thermaldrift.control import LqrWeights
from thermaldrift.figure8 import plan_figure8
from thermaldrift.model import ControlInput, VehicleState, heat_generation, tire_forces
from thermaldrift.paths import CirclePath
from thermaldrift.sim import (
    SIM_COLUMNS,
    Scenario,
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
        initial_state=traj.node_state(0).replace(theta_r=THETA0),
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
    st = traj.node_state(0).replace(theta_r=THETA0, Y=0.01)
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
    a = pole_trace(steady_schedules["thermal"], params)
    b = pole_trace(steady_schedules["thermal"], params,
                   plant_ref=steady_plans["thermal"])
    assert np.allclose(a.poles, b.poles, atol=1e-9)


@pytest.mark.slow
def test_figure8_closed_loop_tracks(params):
    """The README's figure-8 plan, tracked on the thermal plant as
    ``scripts/run_figure8.py`` does, reaches the end of the course."""
    plan = plan_figure8(params, theta0=THETA0, weights=LqrWeights.tracking())
    res = run(plan.scenario(params, THETA0))
    assert res.status == "finished", res.detail
    assert res.max_abs_e < 0.05
