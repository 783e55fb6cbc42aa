"""Figure-8 course assembly: steady arc, dynamic transition, mirrored arc.

The first circle is driven quasi-steadily, the transition is solved as an
optimal-control problem whose terminal conditions place the vehicle on the
mirrored circle (opposite turn direction, opposite sideslip, lateral circle
centers aligned), and the second circle continues quasi-steadily from the
transition's terminal temperature, on a circle placed at the transition's
terminal pose.  Each steady arc carries the circle it is driven on, so the
plan samples its three segments on one continuous arc length: the plan is
the reference its gain schedule is designed along, and ``path`` is the
simulator's centerline over the same arc length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import GainSchedule, LqrWeights, build_schedule
from .equilibrium import QuasiSteadyTrajectory, find_equilibrium, quasi_steady_sweep
from .limits import ActuatorLimits, default_limits
from .model import VehicleState
from .paths import CirclePath, CompositePath, PolylinePath
from .params import ParamSet
from .sim import Scenario
from .trajopt import (
    IX,
    DynamicTrajectory,
    TransitionProblem,
    initial_guess,
    solve_transition,
)

__all__ = ["Figure8Plan", "plan_figure8"]


@dataclass(frozen=True)
class Figure8Plan:
    """The figure-8 reference: circle 1, the transition, and circle 2 placed
    at the transition's terminal pose, on one arc-length coordinate.

    The plan is itself the s-indexed reference (``s_span``/``sample``) its
    gain ``schedule`` is designed along; ``schedule`` is None only while
    :func:`plan_figure8` builds it.
    """

    steady1: QuasiSteadyTrajectory
    transition: DynamicTrajectory
    steady2: QuasiSteadyTrajectory
    schedule: GainSchedule | None = field(default=None, repr=False)

    @property
    def s_break1(self) -> float:
        """Arc length where the transition takes over from circle 1."""
        return float(self.steady1.s[-1])

    @property
    def s_break2(self) -> float:
        """Arc length where circle 2 takes over from the transition."""
        return float(self.transition.s[-1])

    @property
    def total_arc(self) -> float:
        return self.s_break2 + float(self.steady2.s[-1])

    @property
    def transition_length(self) -> float:
        return self.s_break2 - self.s_break1

    def s_span(self) -> tuple[float, float]:
        return 0.0, self.total_arc

    def sample(self, s: float):
        """Reference (state, input, curvature) at course arc length s."""
        if s < self.s_break1:
            return self.steady1.sample(s)
        if s <= self.s_break2:
            return self.transition.sample(s)
        state, inp, kappa = self.steady2.sample(s - self.s_break2)
        return state.replace(s=s), inp, kappa

    def path(self) -> CompositePath:
        """Simulator centerline: arc 1, planned transition, arc 2."""
        pts = self.transition.states[:, [IX.X, IX.Y]]
        return CompositePath([
            (self.steady1.circle, self.s_break1),
            (PolylinePath(pts), self.transition_length),
            (self.steady2.circle, float(self.steady2.s[-1])),
        ])

    def initial_state(self, theta0: float | None = None) -> VehicleState:
        state = self.steady1.sample(0.0)[0]
        if theta0 is not None:
            state = state.replace(theta_r=theta0)
        return state

    def scenario(self, plant: ParamSet, theta0: float) -> Scenario:
        """Closed-loop run of the whole course on ``plant``, starting from a
        tread at ``theta0`` and stopping 0.5 m before the course ends."""
        return Scenario(name="figure8", schedule=self.schedule,
                        path=self.path(), plant=plant,
                        initial_state=self.initial_state(theta0),
                        s_final=self.total_arc - 0.5)


def plan_figure8(params: ParamSet, radius: float = 15.0,
                 beta: float = math.radians(-40.0), theta0: float = 30.0,
                 arc1: float = 70.0, arc2: float = 70.0, *,
                 k_s: float = 200.0, n_steps: int = 100,
                 k_ddelta: float = 1e4, k_dtau: float = 1e-4,
                 h_bounds: tuple[float, float] = (0.01, 0.1),
                 limits: ActuatorLimits | None = None,
                 weights: LqrWeights | None = None,
                 spacing: float = 0.25) -> Figure8Plan:
    """Plan the full figure-8 reference and its gain schedule."""
    limits = limits or default_limits()
    steady1 = quasi_steady_sweep(params, radius, beta, theta0, arc1,
                                 limits=limits)
    st, inp, _ = steady1.sample(arc1)
    x_initial = np.array([st.Vx, st.Vy, st.r, st.psi, st.omega, st.dFz,
                          st.X, st.Y, inp.delta, inp.tau, st.theta_r, st.s])

    beta2 = -beta
    radius2 = -radius
    problem = TransitionProblem(
        params=params, x_initial=x_initial, kappa_final=1.0 / radius2,
        beta_final=beta2, k_ddelta=k_ddelta, k_dtau=k_dtau, k_s=k_s,
        N=n_steps, h_min=h_bounds[0], h_max=h_bounds[1], limits=limits,
        y_center_target=steady1.circle.center[1])
    eq_target = find_equilibrium(params, radius2, beta2, st.theta_r,
                                 limits=limits)
    x_target = x_initial.copy()
    x_target[IX.Vx] = eq_target.V * math.cos(beta2)
    x_target[IX.Vy] = eq_target.V * math.sin(beta2)
    for j, v in ((IX.r, eq_target.r), (IX.omega, eq_target.omega),
                 (IX.dFz, eq_target.dFz), (IX.delta, eq_target.delta),
                 (IX.tau, eq_target.tau)):
        x_target[j] = v
    transition = solve_transition(problem, guess=initial_guess(problem, x_target))

    # place circle 2 from the transition's terminal pose: the course tangent
    # continues and the center sits a signed radius to the left
    xN = transition.states[-1]
    beta_N = math.atan2(xN[IX.Vy], xN[IX.Vx])
    chi_N = xN[IX.psi] + beta_N
    circle2 = CirclePath(radius2, start=(float(xN[IX.X]), float(xN[IX.Y])),
                         phi0=chi_N)

    theta2 = float(xN[IX.theta])
    steady2 = quasi_steady_sweep(params, radius2, beta2, theta2, arc2,
                                 limits=limits)

    plan = Figure8Plan(steady1, transition, replace(steady2, circle=circle2))
    return replace(plan, schedule=build_schedule(
        params, plan, weights=weights, spacing=spacing))
