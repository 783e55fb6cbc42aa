"""The three user pipelines, their seeded inputs and their correctness gates.

Each workload has a ``setup(seed)`` that builds its inputs (untimed, part of
``setup_s``) and a ``run(inputs, out_dir, captured)`` that executes the
pipeline through the public API or the CLI and returns an ``Outcome``.  A
pipeline that raises (the caller catches it), exits non-zero or breaks its
gate is one failed operation.  Why each workload exists is in ``README.md``
next to this file.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field

import numpy as np

from thermaldrift import cli, csvio, sim, trajopt
from thermaldrift.equilibrium import find_equilibrium
from thermaldrift.params import default_params
from thermaldrift.paths import CirclePath

# Seed 0 runs exactly at the nominal 30 degC; other seeds draw theta0
# uniformly from [29.5, 30.0] degC.  The band sits on the cool side on
# purpose: from 29.5 to 30.1 degC the transition solve runs both trust-constr
# phases to their caps (1240 iterations) like the reference case, while at
# 30.2 and 30.5 degC it stops after about 850 iterations (35 s instead of
# 55 s) and at 31 degC it lands in another local optimum (J 668230, 50.7 m).
# A band across that edge would make wall time bimodal in the seed.
THETA_NOMINAL = 30.0   # degC
THETA_BAND = 0.5       # degC below nominal

RADIUS = 15.0
BETA = math.radians(-40.0)
STEADY_ARC = 300.0

# seed-0 reference values and the tolerance each is held to
REF_MAX_ABS_E = 0.0392         # m, thermal plan on steady-compare
REF_MAX_ABS_E_TOL = 5e-5       # matches at the printed 4 decimals
REF_J = 488650.75              # transition cost
REF_LENGTH = 41.75             # m, transition length
REF_REL_TOL = 1e-2             # J and length: the solver-swap acceptance
THERMAL_MAX_E = 0.05           # m, criterion 8 at every seed
TRANSITION_TOL = 1e-6          # terminal residual and max defect


def theta0_for_seed(seed: int) -> float:
    """Initial tread temperature drawn from the seed; seed 0 is nominal."""
    if seed == 0:
        return THETA_NOMINAL
    rng = random.Random(seed)
    return round(THETA_NOMINAL - THETA_BAND * rng.random(), 4)


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # check values by name


class Captured:
    """Objects the pipelines build inside the CLI, kept for the gates."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.compare = None
        self.figure8_plan = None


def _cli(argv):
    """Run one CLI command in-process; returns (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().strip()


# ---------------------------------------------------------------------------
# steady-compare: plan-steady --arc 300, then simulate --scenario steady-compare
# ---------------------------------------------------------------------------

def steady_setup(seed):
    # the CLI loads its own parameters inside the timed call
    return {"seed": seed, "theta0": theta0_for_seed(seed)}


def steady_run(inp, out, captured):
    o = Outcome()
    common = ["--out", out, "--theta0", repr(inp["theta0"])]
    for argv in (["plan-steady", "--arc", STEADY_ARC, *common],
                 ["simulate", "--scenario", "steady-compare", *common]):
        code, err = _cli(argv)
        if code != 0:
            o.failures.append(f"{argv[0]} exit {code}: {err}")
            return o
    results = captured.compare
    thermal = results["matched"]
    o.values["max_abs_e_m"] = thermal.max_abs_e
    if thermal.status != "finished":
        o.failures.append(f"thermal run ended in {thermal.status}")
    if not thermal.max_abs_e < THERMAL_MAX_E:
        o.failures.append(f"thermal max|e| {thermal.max_abs_e:.4f} m "
                          f"not below {THERMAL_MAX_E} m")
    for name in ("mu0.73", "mu0.8"):
        # mu0.8 ending in domain_error is the expected physics
        if not thermal.max_abs_e < results[name].max_abs_e:
            o.failures.append(f"thermal plan does not beat {name}")
    if inp["seed"] == 0 and abs(thermal.max_abs_e - REF_MAX_ABS_E) > \
            REF_MAX_ABS_E_TOL:
        o.failures.append(f"seed-0 max|e| {thermal.max_abs_e:.5f} m, "
                          f"reference {REF_MAX_ABS_E} m")
    return o


# ---------------------------------------------------------------------------
# transition: the criterion-6 problem through solve_transition
# ---------------------------------------------------------------------------

def transition_setup(seed):
    params = default_params()
    theta0 = theta0_for_seed(seed)
    eq1 = find_equilibrium(params, RADIUS, BETA, theta0)
    st = eq1.state(psi=-eq1.beta, X=0.0, Y=0.0, s=0.0)
    IX = trajopt.IX
    x0 = np.array([st.Vx, st.Vy, st.r, st.psi, st.omega, st.dFz, st.X, st.Y,
                   eq1.delta, eq1.tau, theta0, 0.0])
    problem = trajopt.TransitionProblem(
        params=params, x_initial=x0, kappa_final=-1.0 / RADIUS,
        beta_final=-BETA, k_s=200.0, N=100,
        y_center_target=CirclePath(RADIUS).center[1])
    eq2 = find_equilibrium(params, -RADIUS, -BETA, theta0)
    x_target = x0.copy()
    x_target[IX.Vx] = eq2.V * math.cos(eq2.beta)
    x_target[IX.Vy] = eq2.V * math.sin(eq2.beta)
    for j, v in ((IX.r, eq2.r), (IX.omega, eq2.omega), (IX.dFz, eq2.dFz),
                 (IX.delta, eq2.delta), (IX.tau, eq2.tau)):
        x_target[j] = v
    return {"seed": seed, "theta0": theta0, "problem": problem,
            "x_target": x_target}


def _check_transition(o, traj):
    if not traj.terminal_residual <= TRANSITION_TOL:
        o.failures.append(f"terminal residual {traj.terminal_residual:.2e}")
    if not traj.max_defect <= TRANSITION_TOL:
        o.failures.append(f"max defect {traj.max_defect:.2e}")


def transition_run(inp, out, captured):
    o = Outcome()
    problem = inp["problem"]
    traj = trajopt.solve_transition(
        problem, trajopt.initial_guess(problem, inp["x_target"]))
    path = out / "transition.csv"
    csvio.save_dynamic(traj, path)
    back = csvio.load_dynamic(path)
    if not (np.array_equal(back.states, traj.states)
            and np.array_equal(back.inputs, traj.inputs) and back.J == traj.J):
        o.failures.append("transition CSV does not round-trip exactly")
    o.values["transition_J"] = traj.J
    o.values["transition_length_m"] = traj.transition_length
    _check_transition(o, traj)
    if inp["seed"] == 0:
        for name, value, ref in (("J", traj.J, REF_J),
                                 ("length", traj.transition_length,
                                  REF_LENGTH)):
            if abs(value - ref) > REF_REL_TOL * ref:
                o.failures.append(f"seed-0 {name} {value:.4f}, reference {ref}")
    return o


# ---------------------------------------------------------------------------
# figure8: the README's plan-figure8 at its defaults, then closed-loop tracking
# ---------------------------------------------------------------------------

def figure8_setup(seed):
    return {"seed": seed, "theta0": theta0_for_seed(seed),
            "params": default_params()}


def figure8_run(inp, out, captured):
    o = Outcome()
    theta0 = inp["theta0"]
    code, err = _cli(["plan-figure8", "--out", out, "--theta0", repr(theta0)])
    if code != 0:
        o.failures.append(f"plan-figure8 exit {code}: {err}")
        return o
    plan = captured.figure8_plan
    o.values["transition_J"] = plan.transition.J
    o.values["transition_length_m"] = plan.transition_length
    _check_transition(o, plan.transition)
    scenario = sim.Scenario(
        name="figure8", schedule=plan.schedule, path=plan.path(),
        plant=inp["params"], initial_state=plan.initial_state(theta0),
        s_final=plan.total_arc - 0.5)
    res = sim.run(scenario)
    csvio.save_sim(res, out / "sim_figure8.csv")
    o.values["max_abs_e_m"] = res.max_abs_e
    if res.status != "finished":
        o.failures.append(f"figure-8 tracking ended in {res.status} "
                          f"at max|e| {res.max_abs_e:.3f} m: {res.detail}")
    return o


WORKLOADS = {
    "steady-compare": (steady_setup, steady_run),
    "transition": (transition_setup, transition_run),
    "figure8": (figure8_setup, figure8_run),
}
