"""Figure-8 course assembly: steady arc, dynamic transition, mirrored arc.

The first circle is driven quasi-steadily, the transition is solved as an
optimal-control problem whose terminal conditions place the vehicle on the
mirrored circle (opposite turn direction, opposite sideslip, lateral circle
centers aligned), and the second circle continues quasi-steadily from the
transition's terminal temperature, on a circle placed at the transition's
terminal pose.  Each steady arc carries the circle it is driven on and the
transition is its own centerline, so the plan samples and projects onto its
three segments on one arc length: the plan is both the reference its gain
schedule is designed along and the simulator's centerline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .control import GainSchedule, build_schedule
from .equilibrium import QuasiSteadyTrajectory, find_equilibrium, quasi_steady_sweep
from .model import VehicleState
from .paths import CirclePath
from .params import ParamSet
from .trajopt import (
    IX,
    DynamicTrajectory,
    PlannerConfig,
    TransitionProblem,
    extended_state,
    initial_guess,
    solve_transition,
)

__all__ = ["Figure8Plan", "plan_figure8"]


@dataclass(frozen=True)
class Figure8Plan:
    """The figure-8 reference: circle 1, the transition, and circle 2 placed
    at the transition's terminal pose, on one arc-length coordinate.

    The plan places circle 2 itself (from ``steady2``'s radius), so a planned
    and a reloaded plan drive one circle.  It is the s-indexed reference
    (``s_span``/``sample``) a gain schedule is designed along, and the
    centerline (``project``) the closed loop tracks.  :func:`plan_figure8`
    attaches its ``schedule``; a plan reloaded from its files has none
    (``schedule`` is None), and ``simulate`` designs the gains along it.
    """

    steady1: QuasiSteadyTrajectory
    transition: DynamicTrajectory
    steady2: QuasiSteadyTrajectory
    schedule: GainSchedule | None = field(default=None, repr=False)

    def __post_init__(self):
        # circle 2's tangent continues the transition's terminal course
        xN = self.transition.states[-1]
        chi_N = xN[IX.psi] + math.atan2(xN[IX.Vy], xN[IX.Vx])
        circle2 = CirclePath(self.steady2.radius,
                             start=(float(xN[IX.X]), float(xN[IX.Y])),
                             phi0=chi_N)
        object.__setattr__(self, "steady2",
                           replace(self.steady2, circle=circle2))
        # (geometry, offset, local span) per segment, in _segment's order
        object.__setattr__(self, "_course", (
            (self.steady1.circle, 0.0, 0.0, self.s_break1),
            (self.transition, 0.0, self.s_break1, self.s_break2),
            (circle2, self.s_break2, 0.0, float(self.steady2.s[-1]))))

    @property
    def s_break1(self) -> float:
        """Arc length where the transition takes over from circle 1 (the
        hand-over at ``arc``, which need not be a sweep node)."""
        return float(self.transition.s[0])

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

    def _segment(self, s: float) -> int:
        """The segment that owns course arc length s: 0 (circle 1) before
        ``s_break1``, 1 (the transition) up to and including ``s_break2``,
        2 (circle 2) after."""
        if s < self.s_break1:
            return 0
        return 1 if s <= self.s_break2 else 2

    def sample(self, s: float):
        """Reference (state, input, curvature) at course arc length s."""
        i = self._segment(s)
        if i == 0:
            return self.steady1.sample(s)
        if i == 1:
            return self.transition.sample(s)
        state, inp, kappa = self.steady2.sample(s - self.s_break2)
        return state.replace(s=s), inp, kappa

    def project(self, X: float, Y: float, s_hint: float) -> tuple[float, float, float]:
        """Project onto the course near ``s_hint``; returns (s, e, tangent).

        The hint's segment and its neighbours are the candidates, each
        clamped to its own span; the nearest foot wins, and on a tie
        within 1e-12 m the earlier segment.
        """
        i = self._segment(s_hint)
        best = None
        for seg, offset, lo, hi in self._course[max(i - 1, 0):i + 2]:
            s_loc, e, tang = seg.project(X, Y, s_hint - offset)
            s_loc = min(max(s_loc, lo), hi)
            px, py, _ = seg.pose(s_loc)
            dist = math.hypot(X - px, Y - py)
            if best is None or dist < best[0] - 1e-12:
                best = (dist, offset + s_loc, e, tang)
        return best[1:]

    def path(self) -> Figure8Plan:
        """The simulator's centerline, which is the plan itself."""
        return self

    def initial_state(self, theta0: float) -> VehicleState:
        return self.steady1.sample(0.0)[0].replace(theta_r=theta0)


def plan_figure8(params: ParamSet, radius: float = 15.0,
                 beta: float = math.radians(-40.0), theta0: float = 30.0,
                 arc: float = 70.0, *,
                 planner: PlannerConfig | None = None) -> Figure8Plan:
    """Plan the full figure-8 reference and its gain schedule.

    Each circle is driven for ``arc`` metres of steady arc; the transition
    takes over from circle 1 at s = ``arc``.  ``planner`` (default
    :class:`~thermaldrift.trajopt.PlannerConfig()`) sets the transition's
    cost weights, step count and step-duration bounds, and the actuator
    limits of every segment.  The schedule is :func:`build_schedule`'s, on
    the one set of LQR weights every pipeline uses.
    """
    planner = planner or PlannerConfig()
    limits = planner.limits
    steady1 = quasi_steady_sweep(params, radius, beta, theta0, arc,
                                 limits=limits)
    st, inp, _ = steady1.sample(arc)
    x_initial = extended_state(st, inp)

    beta2 = -beta
    radius2 = -radius
    problem = TransitionProblem(
        params=params, x_initial=x_initial, kappa_final=1.0 / radius2,
        beta_final=beta2, y_center_target=steady1.circle.center[1],
        **vars(planner))
    eq_target = find_equilibrium(params, radius2, beta2, st.theta_r,
                                 limits=limits)
    x_target = extended_state(eq_target.state(), eq_target.input())
    transition = solve_transition(problem, initial_guess(problem, x_target))

    theta2 = float(transition.states[-1, IX.theta])
    steady2 = quasi_steady_sweep(params, radius2, beta2, theta2, arc,
                                 limits=limits)

    plan = Figure8Plan(steady1, transition, steady2)
    return replace(plan, schedule=build_schedule(params, plan))
