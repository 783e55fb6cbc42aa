import numpy as np
import pytest

from thermaldrift import csvio
from thermaldrift.cli import main
from thermaldrift.params import default_params, save_params
from thermaldrift.trajopt import _IPM_MAX_ITER


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
    assert "matched" in capsys.readouterr().out


def test_simulate_without_plan_is_config_error(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "empty")])
    assert rc == 1
    assert "trajectory.csv" in capsys.readouterr().err


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


def test_infeasible_plan_is_planner_failure(tmp_path, capsys):
    rc = main(["plan-steady", "--out", str(tmp_path / "out"),
               "--beta", "-75", "--arc", "5"])
    assert rc == 2
    assert capsys.readouterr().err != ""


@pytest.mark.slow
@pytest.mark.parametrize("arc", [["--arc", "10"], []], ids=["arc10", "default"])
def test_plan_figure8(tmp_path, arc):
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
