"""Shared fixtures.  The expensive artifacts (the transition solve and the
three-way steady comparison) are built once per session and reused by the
unit tests and the acceptance suite."""

import math
import time

import numpy as np
import pytest

from thermaldrift.control import build_schedule
from thermaldrift.equilibrium import find_equilibrium, quasi_steady_sweep
from thermaldrift.figure8 import plan_figure8
from thermaldrift.params import default_params
from thermaldrift.paths import CirclePath
from thermaldrift.sim import Scenario, compare
from thermaldrift.trajopt import (
    TransitionProblem,
    extended_state,
    initial_guess,
    solve_transition,
)

RADIUS = 15.0
BETA = math.radians(-40.0)
THETA0 = 30.0
ARC = 300.0


def assert_transition_projects_back(plan):
    """``project`` gives back the s of every point ``sample`` places on the
    transition, so the closed loop measures its progress on the transition
    by the plan's own distance."""
    for s in np.linspace(plan.s_break1, plan.s_break2, 401):
        st = plan.sample(float(s))[0]
        s2, e, _ = plan.project(st.X, st.Y, float(s))
        assert s2 == pytest.approx(s, abs=1e-9)
        assert e == pytest.approx(0.0, abs=1e-9)


@pytest.fixture(scope="session")
def params():
    return default_params()


@pytest.fixture(scope="session")
def eq_nominal(params):
    """The nominal drift equilibrium (R = 15 m, beta = -40 deg, 30 degC)."""
    return find_equilibrium(params, RADIUS, BETA, THETA0)


def make_transition_problem(params, k_s=200.0):
    eq1 = find_equilibrium(params, RADIUS, BETA, THETA0)
    x0 = extended_state(eq1.state(psi=-eq1.beta, X=0.0, Y=0.0, s=0.0),
                        eq1.input())
    problem = TransitionProblem(
        params=params, x_initial=x0, kappa_final=-1.0 / RADIUS,
        beta_final=-BETA, k_s=k_s,
        y_center_target=CirclePath(RADIUS).center[1])
    eq2 = find_equilibrium(params, -RADIUS, -BETA, THETA0)
    x_target = extended_state(eq2.state(), eq2.input())
    return problem, x_target


@pytest.fixture(scope="session")
def transition(params):
    """Figure-8 transition solve plus its wall time, shared across tests."""
    problem, x_target = make_transition_problem(params)
    t0 = time.perf_counter()
    traj = solve_transition(problem, guess=initial_guess(problem, x_target))
    elapsed = time.perf_counter() - t0
    return problem, traj, elapsed


@pytest.fixture(scope="session")
def figure8_plan(params):
    """A short figure-8 plan: 10 m circles around the transition."""
    return plan_figure8(params, radius=RADIUS, beta=BETA, theta0=THETA0,
                        arc=10.0)


@pytest.fixture(scope="session")
def steady_plans(params):
    """Thermal and constant-mu quasi-steady plans for the 300 m circle."""
    return {
        "thermal": quasi_steady_sweep(params, RADIUS, BETA, THETA0, ARC),
        "mu0.73": quasi_steady_sweep(params, RADIUS, BETA, THETA0, ARC,
                                     mu_const=0.73),
        "mu0.8": quasi_steady_sweep(params, RADIUS, BETA, THETA0, ARC,
                                    mu_const=0.8),
    }


@pytest.fixture(scope="session")
def steady_schedules(params, steady_plans):
    return {name: build_schedule(params, traj)
            for name, traj in steady_plans.items()}


@pytest.fixture(scope="session")
def steady_scenarios(params, steady_plans, steady_schedules):
    path = CirclePath(RADIUS)
    return [
        Scenario(name=name, schedule=steady_schedules[name], path=path,
                 plant=params,
                 initial_state=steady_plans[name].sample(0.0)[0]
                 .replace(theta_r=THETA0),
                 s_final=ARC)
        for name in steady_plans
    ]


@pytest.fixture(scope="session")
def steady_results(steady_scenarios):
    """All three plans tracked on the same thermal plant."""
    return compare(steady_scenarios)
