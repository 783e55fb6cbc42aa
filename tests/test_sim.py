import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermaldrift.control import linearize, linearize_stack, nearest_knot
from thermaldrift import sim
from thermaldrift.errors import ModelDomainError, SimulationError
from thermaldrift.figure8 import plan_figure8
from thermaldrift.integrate import rk4
from thermaldrift.limits import default_limits
from thermaldrift.model import ControlInput, VehicleState, friction_coefficient
from thermaldrift.sim import (
    SIM_COLUMNS,
    PoleTrace,
    Scenario,
    _match,
    compare,
    comparison_table,
    pole_trace,
    run,
)

import loop_oracle
from conftest import ARC, RADIUS, THETA0, figure8_scenario
from model_oracle import heat_generation, tire_forces


def short_scenario(params, steady_plans, steady_schedules, plan="thermal",
                   **kwargs):
    """The steady ``plan``'s schedule, tracked along the plan from its
    start."""
    traj = steady_plans[plan]
    defaults = dict(
        name="short", schedule=steady_schedules[plan], path=traj,
        plant=params,
        initial_state=traj.sample(0.0)[0].replace(theta_r=THETA0),
        s_final=30.0)
    defaults.update(kwargs)
    return Scenario(**defaults)


def test_scenario_validation(params, steady_plans, steady_schedules):
    with pytest.raises(ValueError):
        short_scenario(params, steady_plans, steady_schedules, s_final=-1.0)


def test_scenario_rejects_nan_s_final(params, steady_plans, steady_schedules):
    """A NaN end point is not ahead of the start: the run would go on to
    the time cap."""
    with pytest.raises(ValueError, match="s_final"):
        short_scenario(params, steady_plans, steady_schedules,
                       s_final=math.nan)


def test_run_deterministic(params, steady_plans, steady_schedules):
    sc = short_scenario(params, steady_plans, steady_schedules)
    r1, r2 = run(sc), run(sc)
    assert np.array_equal(r1.series, r2.series)
    assert r1.max_abs_e == r2.max_abs_e
    assert r1.status == r2.status == "finished"


def _ndarray_plant_rates(y, params, inp):
    """The plant's 9 rates on an ndarray state, for ``integrate.rk4``."""
    return np.array(loop_oracle.plant_rates(y.tolist(), params, inp))


def test_float_step_matches_rk4_on_run_states(params, steady_plans,
                                               steady_schedules, monkeypatch):
    """Every step of a short closed-loop run equals integrate.rk4 over the
    ndarray twin of the plant rates, bit for bit."""
    steps = []

    def recording_step(plant, y, h, delta, Fxf, tau, _fn=sim._plant_step):
        y_next = _fn(plant, y, h, delta, Fxf, tau)
        steps.append((y, h, ControlInput(delta, Fxf, tau), y_next))
        return y_next

    monkeypatch.setattr(sim, "_plant_step", recording_step)
    traj = steady_plans["thermal"]
    res = run(short_scenario(
        params, steady_plans, steady_schedules, s_final=10.0,
        initial_state=traj.sample(0.0)[0].replace(theta_r=THETA0, Vy=-5.5)))
    assert res.status == "finished"
    assert len(steps) == len(res.series) - 1 > 500
    for y, h, inp, y_next in steps:
        assert all(type(v) is float for v in y_next)
        ref = rk4(_ndarray_plant_rates, np.array(y), h, params, inp)
        assert np.array(y_next).tobytes() == ref.tobytes()


def _raising_stage(step, count):
    """(stage, exception type, message) of one RK4 step that must raise;
    ``count()`` is the number of rate evaluations made so far."""
    with pytest.raises(ModelDomainError) as info:
        step()
    return count(), type(info.value), str(info.value)


@pytest.mark.parametrize("Vx, h, stage", [(0.3, 0.05, 1), (0.55, 0.1, 2),
                                          (0.55, 0.05, 3), (0.6, 0.05, 4)])
def test_float_step_raises_as_rk4(params, eq_nominal, monkeypatch, Vx, h,
                                  stage):
    """Full braking near the slip-model floor: an RK4 stage leaves the
    model's domain, and the float step raises the exception integrate.rk4
    raises, with its message, at the same stage."""
    st = eq_nominal.state()
    k = Vx / st.Vx
    y = [Vx, k * st.Vy, k * st.r, 0.0, k * st.omega, 0.0, 0.0, 0.0, THETA0]
    inp = ControlInput(delta=eq_nominal.delta, Fxf=-8000.0, tau=-1000.0)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sim, "scalar_rates", counted(sim.scalar_rates))
    raised = _raising_stage(
        lambda: sim._plant_step(params, y, h, inp.delta, inp.Fxf, inp.tau),
        lambda: len(calls))
    calls.clear()
    assert raised == _raising_stage(
        lambda: rk4(counted(_ndarray_plant_rates), np.array(y), h, params,
                    inp),
        lambda: len(calls))
    assert raised[0] == stage


@pytest.mark.parametrize("plan, s_final, status", [
    ("thermal", 30.0, "finished"),
    ("mu0.73", 30.0, "finished"),
    ("mu0.8", 60.0, "domain_error"),
])
def test_run_matches_loop_oracle(params, steady_plans, steady_schedules,
                                 plan, s_final, status):
    """run() on the thermal plant equals the loop oracle: series bits,
    status, detail and metrics."""
    sc = short_scenario(params, steady_plans, steady_schedules, plan,
                        name=plan, s_final=s_final)
    got, want = run(sc), loop_oracle.run(sc)
    assert got.status == status
    assert got.series.tobytes() == want.series.tobytes()
    assert replace(got, series=None) == replace(want, series=None)


def test_figure8_run_matches_loop_oracle(params, figure8_plan):
    """The figure-8 plan's own scenario (the plan as its own path, the
    transition's schedule) equals the loop oracle too."""
    sc = figure8_scenario(figure8_plan, params, THETA0, default_limits())
    got, want = run(sc), loop_oracle.run(sc)
    assert len(got.series) > 1000
    assert got.series.tobytes() == want.series.tobytes()
    assert replace(got, series=None) == replace(want, series=None)


def _reference_row(thermal, point):
    """The ref_* columns of SIM_COLUMNS, by name, at one ``sample`` point."""
    st, inp, _ = point
    values = {"mu_r": friction_coefficient(thermal, st.theta_r),
              **vars(inp), **vars(st)}
    return [float(values[name[4:]]) for name in SIM_COLUMNS
            if name.startswith("ref_")]


def test_run_reference_is_the_plan(params, steady_plans, steady_schedules,
                                   steady_results, figure8_plan):
    """Every row a run records (the three steady runs and the figure-8 run)
    holds in its ref_* columns the plan's own sample at the knot nearest
    the row's s, bit for bit: the plan is the run's only reference."""
    runs = [(steady_plans[name], steady_schedules[name], steady_results[name])
            for name in steady_plans]
    runs.append((figure8_plan, figure8_plan.schedule,
                 run(figure8_scenario(figure8_plan, params, THETA0,
                                      default_limits()))))
    ref_columns = [i for i, name in enumerate(SIM_COLUMNS)
                   if name.startswith("ref_")]
    for plan, schedule, res in runs:
        knots = schedule.s_knots.tolist()
        at_knot = np.array([_reference_row(params.thermal, plan.sample(knot))
                            for knot in knots])
        nearest = [nearest_knot(knots, s) for s in res.column("s").tolist()]
        assert len(nearest) > 1000, res.scenario
        assert np.array_equal(res.series[:, ref_columns].view(np.uint64),
                              at_knot[nearest].view(np.uint64)), res.scenario


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
        assert np.all(res.column("Fxf") >= sim._FXF_MIN - 1e-12)
        assert np.all(res.column("Fxf") <= sim._FXF_MAX + 1e-12)


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
    """The drift equilibrium is unstable: feedforward only (a schedule with
    zero gains), a 1 cm lateral perturbation grows until the spin-out guard
    fires."""
    traj = steady_plans["thermal"]
    st = traj.sample(0.0)[0].replace(theta_r=THETA0, Y=0.01)
    sched = steady_schedules["thermal"]
    open_loop = replace(sched, K=np.zeros_like(sched.K))
    sc = Scenario(name="openloop", schedule=open_loop, path=traj,
                  plant=params, initial_state=st, s_final=ARC)
    res = run(sc)
    assert res.status == "spin_out"
    assert res.max_abs_e > 1.0
    # closed loop absorbs the same perturbation
    closed = run(Scenario(name="closed", schedule=steady_schedules["thermal"],
                          path=traj, plant=params,
                          initial_state=st, s_final=100.0))
    assert closed.status == "finished"
    assert closed.max_abs_e < 0.1


def test_time_limit_ends_run(params, steady_plans, steady_schedules,
                             monkeypatch):
    """A run that has not reached s_final by the simulated-time cap ends in
    domain_error after its last permitted step."""
    monkeypatch.setattr(sim, "_T_MAX", 0.05)
    res = run(short_scenario(params, steady_plans, steady_schedules,
                             s_final=5.0))
    assert res.status == "domain_error"
    assert res.detail == "time limit 0.05 s reached before s_final"
    assert len(res.series) == 51


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


class _UnprojectablePlan:
    """A plan whose reference samples as ``plan``'s, but which cannot be
    projected onto."""

    def __init__(self, plan):
        self.sample = plan.sample

    def project(self, X, Y, s_hint):
        raise RuntimeError("no projection")


def test_compare_forked_matches_run(params, steady_plans, steady_schedules,
                                    monkeypatch):
    """Three scenarios in forked workers, one of them failing: its slot
    holds a SimulationError naming it, and the other two are bit-equal to
    run() in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    good = [
        short_scenario(params, steady_plans, steady_schedules, s_final=20.0),
        short_scenario(params, steady_plans, steady_schedules, "mu0.73",
                       name="mu", s_final=20.0),
    ]
    broken = short_scenario(params, steady_plans, steady_schedules,
                            name="broken",
                            path=_UnprojectablePlan(steady_plans["thermal"]))
    results = compare([good[0], broken, good[1]])
    assert list(results) == ["short", "broken", "mu"]
    assert isinstance(results["broken"], SimulationError)
    assert str(results["broken"]) == "broken: no projection"
    for sc in good:
        want, got = run(sc), results[sc.name]
        assert got.series.tobytes() == want.series.tobytes()
        assert replace(got, series=None) == replace(want, series=None)


def _plant_lin(params, plan, schedule):
    """The plant linearized along ``plan`` at the schedule's knots."""
    return linearize_stack(params,
                           [plan.sample(float(s)) for s in schedule.s_knots])


def test_matched_pole_trace_stable(steady_schedules, params, steady_plans):
    sched = steady_schedules["thermal"]
    trace = pole_trace(sched, *_plant_lin(params, steady_plans["thermal"],
                                          sched))
    assert trace.poles.shape == (len(sched), 6)
    assert trace.spectral_abscissa < 0.0


def test_constant_mu_matched_spectra_identical(steady_schedules, params,
                                               steady_plans):
    """Constant-mu schedule on the matching constant-mu plant: identical
    spectra at every knot."""
    sched = steady_schedules["mu0.8"]
    trace = pole_trace(sched,
                       *_plant_lin(params, steady_plans["mu0.8"], sched))
    spread = np.max(np.abs(trace.poles - trace.poles[0]))
    assert spread < 1e-8


def _pole_trace_per_knot(schedule, plant, plant_ref):
    """pole_trace as one linearize/eigvals/_match step per knot along
    ``plant_ref``: the oracle for the stacked version."""
    knots = schedule.s_knots
    poles = np.empty((len(knots), 6), dtype=complex)
    prev = None
    for i in range(len(knots)):
        A, B = linearize(plant, *plant_ref.sample(float(knots[i])))
        eig = np.linalg.eigvals(A - B @ schedule.K[i])
        poles[i] = eig if prev is None else loop_oracle.match(prev, eig)
        prev = poles[i]
    return poles


@pytest.mark.parametrize("form", ["matched", "plant_lin"])
def test_pole_trace_matches_per_knot_loop(steady_schedules, steady_plans,
                                          params, form):
    """The mu = 0.8 schedule along its own plan (matched), and along the
    thermal plan as the CLI evaluates every schedule."""
    sched = steady_schedules["mu0.8"]
    plan = steady_plans["mu0.8" if form == "matched" else "thermal"]
    trace = pole_trace(sched, *_plant_lin(params, plan, sched))
    oracle = _pole_trace_per_knot(sched, params, plan)
    np.testing.assert_allclose(trace.poles, oracle, rtol=0.0, atol=1e-10)


def test_match_equals_loop_oracle():
    """Seeded spectra of conjugate pairs against previous traces on an
    integer grid (exact distance ties, repeated eigenvalues, 0.0 against
    -0.0 imaginary parts) or normally spread: the matrix form picks what
    the loop picks, bit for bit."""
    rng = np.random.default_rng(7)
    tied = 0
    for case in range(400):
        if case % 2:
            half = rng.normal(size=3) + 1j * np.abs(rng.normal(size=3))
            prev = rng.normal(size=6) + 1j * rng.normal(size=6)
        else:
            half = rng.integers(-2, 3, size=3) + 1j * rng.integers(0, 3, size=3)
            prev = rng.integers(-2, 3, size=6) + 1j * rng.integers(-2, 3, size=6)
        if case % 4 < 2:
            prev = prev.real + 0j   # a real trace is as near to both conjugates
        eig = rng.permutation(np.concatenate([half, half.conj()]))
        dist = np.abs(prev[:, None] - eig[None, :])
        tied += any(len(set(row.tolist())) < 6 for row in dist)
        got = _match(prev, eig)
        assert got.tobytes() == loop_oracle.match(prev, eig).tobytes()
        assert sorted(got.tolist(), key=lambda z: (z.real, z.imag)) == \
            sorted(eig.tolist(), key=lambda z: (z.real, z.imag))
    assert tied > 250


def test_cloud_diameter_equals_loop_oracle(steady_schedules, steady_plans,
                                           params):
    """The blocked diameter of each steady-compare trace (1201 knots, so a
    short last block) and of its first 64 and 45 knots is the oracle's,
    bit for bit."""
    knots = steady_schedules["thermal"].s_knots
    plant_lin = _plant_lin(params, steady_plans["thermal"],
                           steady_schedules["thermal"])
    for name, sched in steady_schedules.items():
        trace = pole_trace(sched, *plant_lin)
        for n in (len(knots), 64, 45):
            cut = PoleTrace(s_knots=knots[:n], poles=trace.poles[:n])
            assert cut.cloud_diameter == \
                loop_oracle.cloud_diameter(cut.poles), (name, n)


def test_pole_trace_rejects_wrong_stack(steady_schedules, params, eq_nominal):
    sched = steady_schedules["thermal"]
    A, B = linearize_stack(params, [(
        eq_nominal.state(), eq_nominal.input(), 1.0 / RADIUS)])
    with pytest.raises(ValueError, match="1 plant A and 1 B matrices"):
        pole_trace(sched, A, B)


def test_readme_headline_is_the_printed_poles(params, steady_plans,
                                             steady_schedules):
    """The README's headline block is the three ``poles`` lines that
    ``simulate --scenario steady-compare`` prints on the 300 m plan: each
    schedule against the plant linearized along the thermal plan."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## The headline result\n", 1)[1]
    block = section.split("```\n", 2)[1].splitlines()
    knots = steady_schedules["thermal"].s_knots
    plant = linearize_stack(params, [steady_plans["thermal"].sample(float(s))
                                     for s in knots])
    lines = []
    for name, label in (("thermal", "matched"), ("mu0.73", "mu0.73"),
                        ("mu0.8", "mu0.8")):
        cloud = pole_trace(steady_schedules[name], *plant)
        lines.append(f"poles {label:<8} diameter {cloud.cloud_diameter:8.3f}"
                     f"  spectral abscissa {cloud.spectral_abscissa:+.3f}")
    assert block == lines


@pytest.mark.slow
def test_figure8_closed_loop_tracks(params):
    """The README's figure-8 plan, tracked on the thermal plant as
    ``thermaldrift simulate`` tracks a plan-figure8 directory, reaches the
    end of the course."""
    plan = plan_figure8(params, theta0=THETA0)
    res = run(figure8_scenario(plan, params, THETA0, default_limits()))
    assert res.status == "finished", res.detail
    assert res.max_abs_e < 0.05
