"""The figure-8 plan as the reference its gain schedule is designed along:
circle 1, the transition and circle 2 on one arc length, each steady arc
posed on the circle it is driven on."""

import math

import numpy as np
import pytest

from thermaldrift.figure8 import plan_figure8
from thermaldrift.paths import CirclePath
from thermaldrift.trajopt import IX

from conftest import BETA, RADIUS, THETA0


@pytest.fixture
def plan(figure8_plan):
    return figure8_plan


def _on_circle(circle, s_local, xy):
    want = np.array([circle.pose(float(s))[:2] for s in s_local])
    np.testing.assert_allclose(xy, want, rtol=0.0, atol=1e-9)


def _knot_xy(plan, knots):
    """X, Y of the plan's sample at each knot."""
    return np.array([(st.X, st.Y) for st, _, _ in
                     (plan.sample(float(s)) for s in knots)])


def test_schedule_s_column_is_the_knots(plan):
    """The plan's sample at each schedule knot sits at that knot."""
    knots = plan.schedule.s_knots
    assert np.array_equal([plan.sample(float(s))[0].s for s in knots], knots)


def test_circle1_rows_lie_on_the_first_circle(plan):
    knots = plan.schedule.s_knots
    on1 = knots[knots < plan.s_break1]
    assert len(on1) > 10
    _on_circle(CirclePath(RADIUS), on1, _knot_xy(plan, on1))


def test_circle2_rows_lie_on_the_placed_circle(plan):
    """Circle 2 starts at the transition's terminal pose: the course tangent
    continues and the mirrored center sits a signed radius to the left."""
    xN = plan.transition.states[-1]
    chi_N = xN[IX.psi] + math.atan2(xN[IX.Vy], xN[IX.Vx])
    circle2 = CirclePath(-RADIUS, start=(xN[IX.X], xN[IX.Y]), phi0=chi_N)
    knots = plan.schedule.s_knots
    on2 = knots[knots > plan.s_break2]
    assert len(on2) > 10
    _on_circle(circle2, on2 - plan.s_break2, _knot_xy(plan, on2))


def test_transition_rows_equal_the_transition(plan):
    """The plan's sample at each transition knot, kappa included, is the
    transition's own."""
    knots = plan.schedule.s_knots
    on = knots[(knots >= plan.s_break1) & (knots <= plan.s_break2)]
    assert len(on) > 10
    for s in on.tolist():
        assert plan.sample(s) == plan.transition.sample(s)


def test_sample_is_continuous_across_both_breaks(params):
    """With a steady arc off the 0.25 m node grid, the transition takes
    over at the arc itself, so X, Y do not jump at either break."""
    plan = plan_figure8(params, radius=RADIUS, beta=BETA, theta0=THETA0,
                        arc=10.1)
    assert plan.s_break1 == 10.1
    eps = 1e-6
    for s_break in (plan.s_break1, plan.s_break2):
        before = plan.sample(s_break - eps)[0]
        after = plan.sample(s_break + eps)[0]
        assert math.hypot(after.X - before.X, after.Y - before.Y) < 10 * eps
