import numpy as np
import pytest

from thermaldrift import csvio
from thermaldrift.equilibrium import quasi_steady_sweep
from thermaldrift.errors import ConfigError
from thermaldrift.trajopt import DynamicTrajectory

from conftest import BETA, RADIUS, THETA0


@pytest.fixture(scope="module")
def small_sweep(params):
    return quasi_steady_sweep(params, RADIUS, BETA, THETA0, 2.0)


def test_quasi_steady_round_trip(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    loaded = csvio.load_quasi_steady(path)
    assert np.array_equal(loaded.s, small_sweep.s)
    assert np.array_equal(loaded.t, small_sweep.t)
    assert np.array_equal(loaded.theta, small_sweep.theta)
    assert np.array_equal(loaded.Q, small_sweep.Q)
    assert loaded.radius == small_sweep.radius
    assert loaded.beta_target == small_sweep.beta_target
    assert loaded.thermal == small_sweep.thermal
    assert loaded.equilibria == small_sweep.equilibria


def synthetic_dynamic():
    rng = np.random.default_rng(3)
    N = 7
    return DynamicTrajectory(
        t=0.05 * np.arange(N + 1),
        states=rng.normal(size=(N + 1, 12)),
        inputs=rng.normal(size=(N, 2)),
        h=0.05, J=12.5, input_cost=10.0, distance_cost=2.5,
        terminal_residual=1e-9, max_defect=1e-8, n_outer=42)


def test_dynamic_round_trip(tmp_path):
    traj = synthetic_dynamic()
    path = tmp_path / "dyn.csv"
    csvio.save_dynamic(traj, path)
    loaded = csvio.load_dynamic(path)
    assert np.array_equal(loaded.t, traj.t)
    assert np.array_equal(loaded.states, traj.states)
    assert np.array_equal(loaded.inputs, traj.inputs)
    assert loaded.h == traj.h
    assert loaded.J == traj.J
    assert loaded.n_outer == traj.n_outer


def test_gains_round_trip(tmp_path, params, small_sweep):
    from thermaldrift.control import build_schedule
    sched = build_schedule(params, small_sweep)
    path = tmp_path / "gains.csv"
    csvio.save_gains(sched, path)
    loaded = csvio.load_gains(path)
    assert np.array_equal(loaded.s_knots, sched.s_knots)
    assert np.array_equal(loaded.K, sched.K)
    assert np.array_equal(loaded.ref_states, sched.ref_states)
    assert np.array_equal(loaded.ref_inputs, sched.ref_inputs)
    assert np.array_equal(loaded.kappa, sched.kappa)
    assert np.array_equal(loaded.theta, sched.theta)


def test_sim_round_trip(tmp_path, steady_results):
    res = steady_results["thermal"]
    path = tmp_path / "sim.csv"
    csvio.save_sim(res, path)
    loaded = csvio.load_sim(path)
    assert np.array_equal(loaded.series, res.series)
    assert loaded.scenario == res.scenario
    assert loaded.status == res.status
    assert loaded.max_abs_e == res.max_abs_e
    assert loaded.rms_e == res.rms_e
    assert loaded.final_theta == res.final_theta


def test_poles_round_trip(tmp_path):
    from thermaldrift.sim import PoleTrace
    rng = np.random.default_rng(5)
    trace = PoleTrace(s_knots=0.25 * np.arange(9),
                      poles=rng.normal(size=(9, 6))
                      + 1j * rng.normal(size=(9, 6)))
    path = tmp_path / "poles.csv"
    csvio.save_poles(trace, path)
    loaded = csvio.load_poles(path)
    assert np.array_equal(loaded.s_knots, trace.s_knots)
    assert np.array_equal(loaded.poles, trace.poles)


def test_corrupt_row_named(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    lines = path.read_text().splitlines()
    lines[8] = lines[8].replace(",", ",,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r":9"):
        csvio.load_quasi_steady(path)


def test_bad_number_named(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    lines = path.read_text().splitlines()
    cells = lines[7].split(",")
    cells[2] = "oops"
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r":8"):
        csvio.load_quasi_steady(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "qs.csv"
    path.write_text("# kind quasi_steady\na,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="header"):
        csvio.load_quasi_steady(path)


def test_wrong_kind_rejected(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    with pytest.raises(ConfigError):
        csvio.load_gains(path)


def test_missing_metadata_named(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("# radius")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="radius"):
        csvio.load_quasi_steady(path)
