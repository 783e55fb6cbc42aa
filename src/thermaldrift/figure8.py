"""Figure-8 course assembly: steady arc, dynamic transition, mirrored arc.

The first circle is driven quasi-steadily, the transition is solved as an
optimal-control problem whose terminal conditions place the vehicle on the
mirrored circle (opposite turn direction, opposite sideslip, lateral circle
centers aligned), and the second circle continues quasi-steadily from the
transition's terminal temperature.  The composite carries one continuous
arc-length coordinate for the gain schedule and the simulator path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    radius: float                   # signed radius of the first circle
    beta: float                     # sideslip on the first circle
    steady1: QuasiSteadyTrajectory
    transition: DynamicTrajectory
    steady2: QuasiSteadyTrajectory
    circle1: CirclePath
    circle2: CirclePath
    schedule: GainSchedule = field(repr=False)

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

    def path(self) -> CompositePath:
        """Simulator centerline: arc 1, planned transition, arc 2."""
        pts = self.transition.states[:, [IX.X, IX.Y]]
        return CompositePath([
            (self.circle1, self.s_break1),
            (PolylinePath(pts), self.transition_length),
            (self.circle2, float(self.steady2.s[-1])),
        ])

    def initial_state(self, theta0: float | None = None) -> VehicleState:
        state = _steady_sample(self.steady1, self.circle1, 0.0, 0.0)[0]
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


class _CompositeReference:
    """s-indexed reference over the three segments, for build_schedule."""

    def __init__(self, plan_parts):
        (self.steady1, self.transition, self.steady2,
         self.circle1, self.circle2, self.s1, self.s2) = plan_parts

    def s_span(self):
        return 0.0, self.s2 + float(self.steady2.s[-1])

    def sample(self, s: float):
        if s < self.s1:
            return _steady_sample(self.steady1, self.circle1, s, 0.0)
        if s <= self.s2:
            return self.transition.sample(s)
        return _steady_sample(self.steady2, self.circle2, s - self.s2, self.s2)


def _steady_sample(traj: QuasiSteadyTrajectory, circle: CirclePath,
                   s_local: float, s_offset: float):
    """Quasi-steady reference posed on the actual (placed) circle."""
    k = int(np.clip(np.round(s_local / traj.ds), 0, traj.n_nodes - 1))
    eq = traj.equilibria[k]
    x, y, phi = circle.pose(s_local)
    state = eq.state(s=s_local + s_offset, psi=phi - eq.beta, X=x, Y=y)
    return state, eq.input(), 1.0 / traj.radius


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
    circle1 = CirclePath(radius)

    steady1 = quasi_steady_sweep(params, radius, beta, theta0, arc1,
                                 limits=limits)
    eq_end = steady1.equilibria[-1]
    theta_end = float(steady1.theta[-1])
    x0, y0, phi0 = circle1.pose(arc1)
    st = eq_end.state(s=arc1, psi=phi0 - eq_end.beta, X=x0, Y=y0)
    x_initial = np.array([st.Vx, st.Vy, st.r, st.psi, st.omega, st.dFz,
                          st.X, st.Y, eq_end.delta, eq_end.tau,
                          theta_end, arc1])

    beta2 = -beta
    radius2 = -radius
    problem = TransitionProblem(
        params=params, x_initial=x_initial, kappa_final=1.0 / radius2,
        beta_final=beta2, k_ddelta=k_ddelta, k_dtau=k_dtau, k_s=k_s,
        N=n_steps, h_min=h_bounds[0], h_max=h_bounds[1], limits=limits,
        y_center_target=circle1.center[1])
    eq_target = find_equilibrium(params, radius2, beta2, theta_end,
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

    parts = (steady1, transition, steady2, circle1, circle2,
             float(steady1.s[-1]), float(transition.s[-1]))
    schedule = build_schedule(params, _CompositeReference(parts),
                              weights=weights, spacing=spacing)
    return Figure8Plan(radius=radius, beta=beta, steady1=steady1,
                       transition=transition, steady2=steady2,
                       circle1=circle1, circle2=circle2, schedule=schedule)
