import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import thermaldrift
from thermaldrift import cli, csvio, figure8, sim
from thermaldrift.cli import main
from thermaldrift.control import build_schedule, linearize_stack
from thermaldrift.figure8 import Figure8Plan
from thermaldrift.limits import default_limits
from thermaldrift.params import default_params, save_params
from thermaldrift.sim import PoleTrace, pole_trace, run
from thermaldrift.trajopt import (IX, _IPM_MAX_ITER, PlannerConfig,
                                  load_planner_config)

from conftest import assert_transition_projects_back


def test_plan_steady_writes_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["plan-steady", "--out", str(out), "--arc", "20"])
    assert rc == 0
    for name in ("trajectory.csv", "gains.csv", "summary.txt"):
        assert (out / name).exists()
    traj = csvio.load_quasi_steady(out / "trajectory.csv")
    assert traj.n_nodes == int(round(20.0 / 0.25)) + 1
    summary = (out / "summary.txt").read_text()
    assert "thermal" in summary
    # the package's schedule along the written plan is the one shipped
    assert np.array_equal(build_schedule(default_params(), traj).K,
                          csvio.load_gains(out / "gains.csv").K)


def test_plan_steady_mu_const_inputs_constant(tmp_path):
    out = tmp_path / "out"
    rc = main(["plan-steady", "--out", str(out), "--arc", "20",
               "--mu-const", "0.8"])
    assert rc == 0
    traj = csvio.load_quasi_steady(out / "trajectory.csv")
    assert traj.thermal is False
    deltas = np.array([eq.delta for eq in traj.equilibria])
    taus = np.array([eq.tau for eq in traj.equilibria])
    assert np.max(np.abs(deltas - deltas[0])) < 1e-9
    assert np.max(np.abs(taus - taus[0])) < 1e-9


def test_simulate_matched(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "20"]) == 0
    rc = main(["simulate", "--out", str(out)])
    assert rc == 0
    assert (out / "sim_matched.csv").exists()
    assert (out / "poles_matched.csv").exists()
    assert (out / "report.txt").exists()
    res = csvio.load_sim(out / "sim_matched.csv")
    assert res.status == "finished"
    assert res.max_abs_e < 0.05
    assert capsys.readouterr().out == (out / "report.txt").read_text()


@pytest.mark.parametrize("plan_options, theta0", [
    (["--theta0", "60"], "60"),
    (["--theta0", "60", "--mu-const", "0.8"], "30"),
], ids=["thermal", "constant_mu"])
def test_simulate_starts_at_plan_theta0(tmp_path, plan_options, theta0):
    """Without --theta0 the plant starts at the plan's own tread temperature;
    a constant-mu plan models none and starts at the plan commands' 30 degC."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "20",
                 *plan_options]) == 0
    given = tmp_path / "given"
    shutil.copytree(out, given)
    assert main(["simulate", "--out", str(out)]) == 0
    assert main(["simulate", "--out", str(given), "--theta0", theta0]) == 0
    assert ((out / "sim_matched.csv").read_bytes()
            == (given / "sim_matched.csv").read_bytes())


@pytest.mark.parametrize("option", [["--arc", "3"], ["--radius", "10"],
                                    ["--beta", "-30"]],
                         ids=["arc", "radius", "beta"])
def test_simulate_rejects_plan_options(tmp_path, option):
    """simulate takes the arc, radius and sideslip from trajectory.csv."""
    with pytest.raises(SystemExit):
        main(["simulate", "--out", str(tmp_path / "out"), *option])


def test_simulate_runs_planned_arc(tmp_path):
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "10"]) == 0
    assert main(["simulate", "--out", str(out)]) == 0
    res = csvio.load_sim(out / "sim_matched.csv")
    assert res.status == "finished"
    assert res.column("s")[-1] == pytest.approx(10.0, abs=0.05)


def test_simulate_without_plan_is_config_error(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "empty")])
    assert rc == 1
    assert "trajectory.csv" in capsys.readouterr().err


def test_missing_input_file_is_config_error(tmp_path, capsys):
    """A plan file or parameter file that is not there is a configuration
    error that names the file."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    (out / "gains.csv").unlink()
    assert main(["simulate", "--out", str(out)]) == 1
    assert "gains.csv" in capsys.readouterr().err
    rc = main(["simulate", "--out", str(out),
               "--params", str(tmp_path / "absent.txt")])
    assert rc == 1
    assert "absent.txt" in capsys.readouterr().err


def test_missing_param_key_is_config_error(tmp_path, capsys):
    pfile = tmp_path / "params.txt"
    save_params(default_params(), pfile)
    lines = [ln for ln in pfile.read_text().splitlines()
             if not ln.startswith("KA_tire")]
    pfile.write_text("\n".join(lines) + "\n")
    rc = main(["plan-steady", "--out", str(tmp_path / "out"),
               "--params", str(pfile), "--arc", "5"])
    assert rc == 1
    assert "KA_tire" in capsys.readouterr().err


def test_corrupt_trajectory_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    traj = out / "trajectory.csv"
    lines = traj.read_text().splitlines()
    lines[8] = lines[8] + ",junk"
    traj.write_text("\n".join(lines) + "\n")
    rc = main(["simulate", "--out", str(out)])
    assert rc == 1
    assert "trajectory.csv" in capsys.readouterr().err


@pytest.mark.parametrize("name, column, row, cell", [
    ("trajectory.csv", "r", 1, "nan"),
    ("trajectory.csv", "r", 1, "inf"),
    ("gains.csv", "K01", 0, "inf"),
    ("trajectory.csv", "s", -1, "nan"),
], ids=["r_nan", "r_inf", "gain_inf", "last_s_nan"])
def test_non_finite_plan_cell_is_config_error(tmp_path, capsys, name, column,
                                              row, cell):
    """A NaN or infinite cell in a plan file is a configuration error that
    names its line and column, raised before any run writes a result."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    path = out / name
    lines = path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    k = range(header + 1, len(lines))[row]
    cells = lines[k].split(",")
    cells[lines[header].split(",").index(column)] = cell
    lines[k] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--out", str(out)]) == 1
    assert (f"{name}:{k + 1}: {column} must be a finite number, "
            f"got '{cell}'") in capsys.readouterr().err
    assert not (out / "sim_matched.csv").exists()


@pytest.mark.parametrize("key, text", [
    ("ds", "inf"), ("radius", "nan"), ("thermal", "inf"),
], ids=["ds_inf", "radius_nan", "thermal_inf"])
def test_non_finite_plan_metadata_is_config_error(tmp_path, capsys, key,
                                                  text):
    """A NaN or infinite metadata value in a plan file is a configuration
    error that names the file and the key, raised before any run writes a
    result."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    path = out / "trajectory.csv"
    lines = [f"# {key} {text}" if ln.startswith(f"# {key} ") else ln
             for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--out", str(out)]) == 1
    assert f"trajectory.csv: metadata {key} must be" in capsys.readouterr().err
    assert not list(out.glob("sim_*.csv"))


@pytest.mark.parametrize("key, text, message", [
    ("radius", "0.0", ": metadata |radius| must be at least 5 m, got 0"),
    ("ds", "0", ": metadata ds must be a positive number, got '0'"),
    ("ds", "-0.25", ": metadata ds must be a positive number, got '-0.25'"),
    ("beta_target", "1.5",
     ": metadata |beta_target| must be below 80 deg, got 1.5"),
], ids=["radius_zero", "ds_zero", "ds_negative", "beta_target_86deg"])
def test_plan_metadata_the_planner_refuses_is_config_error(tmp_path, capsys,
                                                           key, text,
                                                           message):
    """A quasi-steady plan file whose radius or sideslip check_radius or
    check_sideslip refuses, or whose ds is not positive, is a configuration
    error naming the file and key, and no run writes a result."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    path = out / "trajectory.csv"
    lines = [f"# {key} {text}" if ln.startswith(f"# {key} ") else ln
             for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--out", str(out)]) == 1
    assert f"trajectory.csv{message}" in capsys.readouterr().err
    assert not list(out.glob("sim_*.csv"))


def edit_cell(path, row, column, text):
    """Rewrite the ``column`` cell of data row ``row`` (from 0) of the CSV
    file ``path``."""
    lines = path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cells = lines[header + 1 + row].split(",")
    cells[lines[header].split(",").index(column)] = text
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_plan_s_off_grid_is_config_error(tmp_path, capsys):
    """A quasi-steady node moved off the ds grid is a configuration error
    naming the file and the column."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    edit_cell(out / "trajectory.csv", 3, "s", "0.8")
    assert main(["simulate", "--out", str(out)]) == 1
    assert ("trajectory.csv: column s is off its ds grid of 0.25 m"
            in capsys.readouterr().err)
    assert not list(out.glob("sim_*.csv"))


def save_figure8(out, plan):
    """Write ``plan``'s files as plan-figure8 does, into the new ``out``."""
    out.mkdir()
    csvio.save_quasi_steady(plan.steady1, out / "trajectory_steady1.csv")
    csvio.save_dynamic(plan.transition, out / "trajectory_transition.csv")
    csvio.save_quasi_steady(plan.steady2, out / "trajectory_steady2.csv")
    csvio.save_gains(plan.schedule, out / "gains.csv")


def keep_rows(path, n):
    """Cut the CSV file ``path`` to its first ``n`` data rows."""
    lines = path.read_text().splitlines(True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    path.write_text("".join(lines[:header + 1 + n]))


def test_transition_repeated_position_is_config_error(tmp_path, capsys,
                                                      figure8_plan):
    """A transition file with two consecutive rows at the same X and Y has
    a zero-length chord in its centerline: a configuration error naming
    the file, and no run writes a result."""
    out = tmp_path / "out"
    plan = figure8_plan
    states = plan.transition.states.copy()
    states[6, [IX.X, IX.Y]] = states[5, [IX.X, IX.Y]]
    save_figure8(out, replace(plan, transition=replace(plan.transition,
                                                       states=states)))
    assert main(["simulate", "--out", str(out)]) == 1
    assert ("trajectory_transition.csv: two consecutive rows share X and Y"
            in capsys.readouterr().err)
    assert not list(out.glob("sim_*.csv"))


def test_steady_plan_of_one_row_is_config_error(tmp_path, capsys):
    """A trajectory.csv of one row is shorter than the one step of the
    shortest sweep: a configuration error naming the file."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    keep_rows(out / "trajectory.csv", 1)
    assert main(["simulate", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'trajectory.csv'}: the planner writes at least 2 "
        "data rows, this file holds 1\n")
    assert not list(out.glob("sim_*.csv"))


@pytest.mark.parametrize("rows", [1, 2])
def test_transition_shorter_than_two_steps_is_config_error(
        tmp_path, capsys, figure8_plan, rows):
    """A trajectory_transition.csv of fewer than the 3 rows of the
    planner's shortest transition (N = 2) is a configuration error naming
    the file."""
    out = tmp_path / "out"
    save_figure8(out, figure8_plan)
    keep_rows(out / "trajectory_transition.csv", rows)
    assert main(["simulate", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'trajectory_transition.csv'}: the planner writes at "
        f"least 3 data rows, this file holds {rows}\n")
    assert not list(out.glob("sim_*.csv"))


@pytest.mark.parametrize("cut", [True, False],
                         ids=["first_10_knots", "arc_10_gains"])
def test_gains_off_the_plan_knots_is_config_error(tmp_path, capsys, cut):
    """A gains.csv cut to its first 10 knots, or planned over a longer arc,
    is not its plan's schedule: a configuration error naming gains.csv, and
    no run writes a result."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    if cut:
        keep_rows(out / "gains.csv", 10)
    else:
        other = tmp_path / "other"
        assert main(["plan-steady", "--out", str(other), "--arc", "10"]) == 0
        shutil.copy(other / "gains.csv", out / "gains.csv")
    assert main(["simulate", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'gains.csv'}: the knots are not its plan's 21, from "
        "s = 0 to 5 m\n")
    assert not list(out.glob("sim_*.csv"))


def test_gains_repeated_knot_is_config_error(tmp_path, capsys):
    """A gains.csv whose knots repeat is a configuration error naming the
    file, not a planner failure."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    edit_cell(out / "gains.csv", 3, "s", "0.5")
    assert main(["simulate", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'gains.csv'}: schedule knots must be strictly "
        "increasing\n")
    assert not list(out.glob("sim_*.csv"))


def test_gains_without_rows_is_config_error(tmp_path, capsys):
    """A gains.csv cut after its header (head -2) is a configuration error,
    not a traceback."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "5"]) == 0
    gains = out / "gains.csv"
    gains.write_text("".join(gains.read_text().splitlines(True)[:2]))
    assert main(["simulate", "--out", str(out)]) == 1
    assert "gains.csv: no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("command, settings, named", [
    ("plan-figure8", "h_min 0.2\nh_max 0.1\n", "planner.txt: "),
    ("plan-steady", "delta_min 50\n", "planner.txt: "),
    ("plan-figure8", "k_s nan\n", "planner.txt:1: k_s must be a finite"),
    ("plan-steady", "delta_max inf\n",
     "planner.txt:1: delta_max must be a finite"),
], ids=["h_bounds", "delta_bounds", "k_s_nan", "delta_max_inf"])
def test_planner_values_out_of_order_are_config_error(tmp_path, capsys,
                                                      command, settings,
                                                      named):
    """A planner-file value out of order, out of range or not finite is a
    configuration error that names where it came from, not a planner
    failure, and nothing is written."""
    cfg = tmp_path / "planner.txt"
    cfg.write_text(settings)
    rc = main([command, "--out", str(tmp_path / "out"), "--arc", "5",
               "--planner-config", str(cfg)])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, option", [
    ("plan-steady", ["--arc", "inf"]),
    ("plan-steady", ["--beta", "nan"]),
    ("plan-steady", ["--mu-const", "nan"]),
    ("plan-figure8", ["--radius", "nan"]),
], ids=["steady_arc", "steady_beta", "steady_mu_const", "figure8_radius"])
def test_non_finite_option_is_config_error(tmp_path, capsys, command, option):
    """An infinite or NaN number on the command line is a configuration
    error naming its option, and nothing is written."""
    rc = main([command, "--out", str(tmp_path / "out"), *option])
    assert rc == 1
    assert f"{option[0]} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, option, message", [
    ("plan-steady", ["--arc", "-5"], "--arc -5: total_arc must be at least"),
    ("plan-steady", ["--arc", "0.1"], "--arc 0.1: total_arc must be at least"),
    ("plan-steady", ["--radius", "3"], "--radius 3: |radius| must be at least"),
    ("plan-steady", ["--beta", "85"], "--beta 85: |beta_target| must be below"),
    ("plan-steady", ["--mu-const", "0"],
     "--mu-const 0: the friction coefficient must be positive"),
    ("plan-steady", ["--mu-const", "-1"],
     "--mu-const -1: the friction coefficient must be positive"),
    ("plan-steady", ["--mu-const", "0.5"],
     "--mu-const 0.5: outside the friction map's range 0.594 to 1.070 over "
     "0 to 120 degC"),
    ("plan-steady", ["--mu-const", "1.2"],
     "--mu-const 1.2: outside the friction map's range 0.594 to 1.070 over "
     "0 to 120 degC"),
    ("plan-steady", ["--theta0", "150"],
     "--theta0 150: the tread temperature must lie in the friction map's "
     "range 0 to 120 degC"),
    ("plan-figure8", ["--arc", "-5"], "--arc -5: total_arc must be at least"),
    ("plan-figure8", ["--theta0", "-1"],
     "--theta0 -1: the tread temperature must lie in the friction map's "
     "range 0 to 120 degC"),
    ("simulate", ["--theta0", "120.5"],
     "--theta0 120.5: the tread temperature must lie in the friction map's "
     "range 0 to 120 degC"),
], ids=["steady_arc_negative", "steady_arc_short", "steady_radius",
        "steady_beta", "steady_mu_const_zero", "steady_mu_const_negative",
        "steady_mu_const_low", "steady_mu_const_high", "steady_theta0",
        "figure8_arc", "figure8_theta0", "simulate_theta0"])
def test_out_of_range_option_is_config_error(tmp_path, capsys, command,
                                             option, message):
    """A number outside the planner's or the friction map's range is a
    configuration error that names its option, not a planner failure, and
    nothing is written."""
    rc = main([command, "--out", str(tmp_path / "out"), *option])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", [["--theta0", "0"], ["--theta0", "120"],
                                    ["--mu-const", "1.07"]],
                         ids=["theta0_low", "theta0_high", "mu_const_high"])
def test_option_at_friction_map_edge_plans(tmp_path, option):
    """Both ends of the friction map's declared range are accepted."""
    rc = main(["plan-steady", "--out", str(tmp_path / "out"), "--arc", "1",
               *option])
    assert rc == 0


def test_mu_const_range_follows_params(tmp_path, capsys):
    """--mu-const is checked against the map of the loaded parameter file:
    mu_r0 1.2 moves the range to 0.724 to 1.200."""
    pfile = tmp_path / "params.txt"
    params = default_params()
    save_params(replace(params, thermal=replace(params.thermal, mu_r0=1.2)),
                pfile)
    rc = main(["plan-steady", "--out", str(tmp_path / "out"), "--arc", "1",
               "--params", str(pfile), "--mu-const", "0.7"])
    assert rc == 1
    assert ("--mu-const 0.7: outside the friction map's range 0.724 to 1.200"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_steady_commands_never_load_scipy_linalg(tmp_path):
    """plan-steady and simulate --scenario steady-compare run without
    importing scipy.linalg, which only the LQR fallback and the transition's
    banded KKT solve call.  A fresh interpreter, since the test modules
    import it themselves."""
    out = str(tmp_path / "out")
    script = f"""
import sys
from thermaldrift.cli import main
for argv in (["plan-steady", "--out", {out!r}, "--arc", "20"],
             ["simulate", "--out", {out!r}, "--scenario", "steady-compare"]):
    assert main(argv) == 0, argv
    assert "scipy.linalg" not in sys.modules, argv
"""
    src = str(Path(thermaldrift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_steady_compare_csvs_match_in_process_runs(tmp_path, monkeypatch):
    """With its runs and CSV writes in forked workers, simulate --scenario
    steady-compare writes each sim_*.csv byte for byte as save_sim(run(sc))
    does in this process, and each poles_*.csv as the scenario's schedule
    against the plant linearized once along the matched plan.  report.txt
    ends with one line per scenario giving that trace's pole-cloud diameter
    and spectral abscissa."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    scenarios = []

    def capture(scs, _fn=cli.compare):
        scenarios.extend(scs)
        return _fn(scs)

    monkeypatch.setattr(cli, "compare", capture)
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "20"]) == 0
    assert main(["simulate", "--out", str(out),
                 "--scenario", "steady-compare"]) == 0
    assert [sc.name for sc in scenarios] == ["matched", "mu0.73", "mu0.8"]
    matched = csvio.load_quasi_steady(out / "trajectory.csv")
    knots = scenarios[0].schedule.s_knots
    for sc in scenarios:
        want = tmp_path / f"want_{sc.name}.csv"
        csvio.save_sim(run(sc), want)
        assert (out / f"sim_{sc.name}.csv").read_bytes() == \
            want.read_bytes(), sc.name
        want = tmp_path / f"want_poles_{sc.name}.csv"
        csvio.save_poles(pole_trace(sc.schedule, *linearize_stack(
            default_params(), [matched.sample(float(s)) for s in knots])),
            want)
        assert (out / f"poles_{sc.name}.csv").read_bytes() == \
            want.read_bytes(), sc.name
    report = (out / "report.txt").read_text().splitlines()
    poles = [csvio.load_poles(out / f"poles_{sc.name}.csv")
             for sc in scenarios]
    assert report[-3:] == [
        f"poles {sc.name:<8} diameter {trace.cloud_diameter:8.3f}  "
        f"spectral abscissa {trace.spectral_abscissa:+.3f}"
        for sc, trace in zip(scenarios, poles)]


@pytest.mark.parametrize("module, name, scenario", [
    (sim, "run", lambda sc: sc.name),
    (csvio, "save_sim", lambda result: result.scenario)],
    ids=["run", "save_sim"])
def test_dead_worker_is_simulation_failure(tmp_path, monkeypatch, capsys,
                                           module, name, scenario):
    """A forked worker of simulate, a scenario's run or its CSV write, that
    exits without sending its result ends simulate with exit 3 and one line
    that names the scenario."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "10"]) == 0

    def exit_on_mu08(first, *args, _fn=getattr(module, name)):
        if scenario(first) == "mu0.8":
            os._exit(9)
        return _fn(first, *args)

    monkeypatch.setattr(module, name, exit_on_mu08)
    capsys.readouterr()
    assert main(["simulate", "--out", str(out),
                 "--scenario", "steady-compare"]) == 3
    assert capsys.readouterr().err == (
        "simulation failure: mu0.8: worker for item 2 exited with code 9 "
        "before sending its result\n")


def test_infeasible_plan_is_planner_failure(tmp_path, capsys):
    rc = main(["plan-steady", "--out", str(tmp_path / "out"),
               "--beta", "-75", "--arc", "5"])
    assert rc == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("command, arc", [
    ("plan-steady", ["--arc", "20"]), ("plan-figure8", []),
], ids=["steady", "figure8"])
def test_saturated_rear_tire_is_planner_failure(tmp_path, capsys, command,
                                                arc):
    """At beta -50 deg the rear tire saturates before any equilibrium: both
    plan commands fail at the first sweep node, saying so, and nothing is
    written."""
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--beta", "-50", *arc]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "planner failure: sweep node 0 (s=0.00 m): no equilibrium at "
        "radius=15.0 m, beta=-0.873 rad, theta=30.0 degC: rear tire "
        "saturated with residual ")
    assert not out.exists()


def test_equilibrium_beyond_limit_is_planner_failure(tmp_path, capsys):
    """A sweep whose equilibrium needs more torque than the planner file
    allows fails at its first node, naming the node and the limit, and
    nothing is written."""
    cfg = tmp_path / "planner.txt"
    cfg.write_text("tau_max 1\n")
    rc = main(["plan-steady", "--out", str(tmp_path / "out"), "--arc", "5",
               "--planner-config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "planner failure: sweep node 0 (s=0.00 m): equilibrium torque 2154 "
        "N m exceeds the torque limit\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.slow
@pytest.mark.parametrize("arc", [["--arc", "10"], []], ids=["arc10", "default"])
def test_plan_figure8(tmp_path, request, arc):
    out = tmp_path / "out"
    rc = main(["plan-figure8", "--out", str(out), *arc])
    assert rc == 0
    for name in ("trajectory_steady1.csv", "trajectory_transition.csv",
                 "trajectory_steady2.csv", "gains.csv", "summary.txt"):
        assert (out / name).exists()
    summary = dict(ln.split(maxsplit=1) for ln in
                   (out / "summary.txt").read_text().splitlines()
                   if " " in ln)
    assert float(summary["beta_initial_deg"]) * \
        float(summary["beta_final_deg"]) < 0.0
    assert float(summary["terminal_residual"]) < 1e-6
    transition = csvio.load_dynamic(out / "trajectory_transition.csv")
    assert transition.n_outer < _IPM_MAX_ITER
    assert_transition_projects_back(Figure8Plan(
        csvio.load_quasi_steady(out / "trajectory_steady1.csv"), transition,
        csvio.load_quasi_steady(out / "trajectory_steady2.csv")))
    if arc:
        # the conftest plan is the same 10 m course, planned in-process
        plan = request.getfixturevalue("figure8_plan")
        assert np.array_equal(csvio.load_gains(out / "gains.csv").K,
                              plan.schedule.K)


@pytest.mark.slow
def test_simulate_figure8_plan(tmp_path, monkeypatch, capsys):
    """simulate on a plan-figure8 directory tracks the plan it wrote: the
    series is the in-memory plan's own run, circle 2 is placed where the
    planner placed it, report.txt ends with the largest error on each
    segment (the sample at s_break2 on the transition), and the directory
    takes no steady-compare and no second plan."""
    planned = []

    def capture(*args, _fn=cli.plan_figure8, **kwargs):
        planned.append(_fn(*args, **kwargs))
        return planned[-1]

    monkeypatch.setattr(cli, "plan_figure8", capture)
    out = tmp_path / "out"
    assert main(["plan-figure8", "--out", str(out), "--arc", "20"]) == 0
    assert main(["simulate", "--out", str(out)]) == 0
    (plan,) = planned
    expected = run(plan.scenario(default_params(), 30.0, default_limits()))
    assert expected.status == "finished"
    written = csvio.load_sim(out / "sim_figure8.csv")
    assert np.array_equal(written.series, expected.series)
    s, e = written.column("s"), np.abs(written.column("e"))
    segments = (("circle 1", s < plan.s_break1),
                ("transition", (s >= plan.s_break1) & (s <= plan.s_break2)),
                ("circle 2", s > plan.s_break2))
    assert (out / "report.txt").read_text().splitlines()[-3:] == [
        f"{label:<11} max|e| {e[mask].max():6.3f} m"
        for label, mask in segments]
    # the pole cloud of each segment, from the whole course's trace
    trace = csvio.load_poles(out / "poles_figure8.csv")
    on = np.array([plan._segment(k) for k in trace.s_knots.tolist()])
    clouds = [PoleTrace(trace.s_knots[on == i], trace.poles[on == i])
              for i in range(3)]
    assert (out / "report.txt").read_text().splitlines()[-6:-3] == [
        f"poles {label:<10} diameter {cloud.cloud_diameter:8.3f}  "
        f"spectral abscissa {cloud.spectral_abscissa:+.3f}"
        for (label, _), cloud in zip(segments, clouds)]
    # the closed loop measures the transition by the plan's own distance,
    # so the recorded s does not jump where circle 2 takes over
    assert_transition_projects_back(plan)
    steps = np.diff(s)
    k = np.searchsorted(s, plan.s_break2)
    assert steps[k - 4:k + 3].max() <= 1.1 * np.median(steps)
    reloaded = Figure8Plan(
        csvio.load_quasi_steady(out / "trajectory_steady1.csv"),
        csvio.load_dynamic(out / "trajectory_transition.csv"),
        csvio.load_quasi_steady(out / "trajectory_steady2.csv"))
    assert reloaded.steady2.circle == plan.steady2.circle
    for name in ("poles_figure8.csv", "report.txt"):
        assert (out / name).exists(), name
    capsys.readouterr()

    rc = main(["simulate", "--out", str(out), "--scenario", "steady-compare"])
    assert rc == 1
    assert "figure-8 plan" in capsys.readouterr().err
    shutil.copy(out / "trajectory_steady1.csv", out / "trajectory.csv")
    assert main(["simulate", "--out", str(out)]) == 1
    assert "must hold one plan" in capsys.readouterr().err


def test_simulate_figure8_failed_tracking_exits_3(tmp_path):
    """At --arc 10 the closed loop ends in domain_error on circle 2:
    simulate still writes the series and the report, circle 2's error
    included, then exits with the simulation-failure code 3."""
    out = tmp_path / "out"
    assert main(["plan-figure8", "--out", str(out), "--arc", "10"]) == 0
    assert main(["simulate", "--out", str(out)]) == 3
    assert (out / "report.txt").read_text().splitlines()[-1].startswith(
        "circle 2    max|e| ")
    assert csvio.load_sim(out / "sim_figure8.csv").status == "domain_error"


@pytest.mark.parametrize("plan, scenario, written, study", [
    ("plan-steady", ["--scenario", "steady-compare"],
     ["trajectory.csv", "gains.csv", "report.txt", "sim_matched.csv",
      "sim_mu0.73.csv", "sim_mu0.8.csv", "poles_matched.csv"],
     ["poles matched  diameter ", "poles mu0.73   diameter ",
      "poles mu0.8    diameter "]),
    ("plan-figure8", [],
     ["trajectory_steady1.csv", "trajectory_transition.csv",
      "trajectory_steady2.csv", "gains.csv", "sim_figure8.csv"],
     ["circle 1    max|e| ", "transition  max|e| ", "circle 2    max|e| "]),
], ids=["steady_comparison", "figure8"])
def test_script_runs(tmp_path, capsys, plan, scenario, written, study):
    """Each study runs end to end through the CLI on a 20 m arc: the plan
    command, then simulate, exit 0, write their files, and report.txt (as
    printed) ends with the study's lines, the pole clouds of the steady
    comparison or the figure-8 error on each segment."""
    out = tmp_path / "out"
    assert main([plan, "--arc", "20", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--out", str(out), *scenario]) == 0
    for name in written:
        assert (out / name).exists(), name
    report = (out / "report.txt").read_text()
    assert capsys.readouterr().out == report
    tail = report.splitlines()[-len(study):]
    assert [ln[:len(prefix)] for ln, prefix in zip(tail, study)] == study


class _TransitionPosed(Exception):
    """Stops plan-figure8 once the transition problem is built."""


def test_plan_figure8_passes_planner_config(tmp_path, monkeypatch):
    """Every planner-file setting reaches the transition problem."""
    posed = []

    def record(problem, guess):
        posed.append(problem)
        raise _TransitionPosed

    monkeypatch.setattr(figure8, "solve_transition", record)
    cfg = tmp_path / "planner.txt"
    cfg.write_text("n_steps 40\nh_min 0.02\nh_max 0.08\nk_ddelta 2e4\n"
                   "k_dtau 50\nk_s 300\nddelta_max 80\ndtau_max 2.5\n")
    with pytest.raises(_TransitionPosed):
        main(["plan-figure8", "--out", str(tmp_path / "out"), "--arc", "10",
              "--planner-config", str(cfg)])
    (problem,) = posed
    assert problem.N == 40
    assert (problem.h_min, problem.h_max) == (0.02, 0.08)
    assert problem.k_ddelta == 2e4
    assert problem.k_dtau == 50 * 1e-6          # (kN m/s)^-2 -> (N m/s)^-2
    assert problem.k_s == 300.0
    assert problem.limits == replace(default_limits(),
                                     ddelta_max=80 * math.pi / 180.0,
                                     dtau_max=2500.0)
    loaded = load_planner_config(cfg)
    for f in fields(PlannerConfig):
        assert getattr(problem, f.name) == getattr(loaded, f.name), f.name
