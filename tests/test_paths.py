import math

import numpy as np
import pytest

from thermaldrift.paths import CirclePath, wrap_angle
from thermaldrift.trajopt import IX, DynamicTrajectory

from conftest import assert_transition_projects_back


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert wrap_angle(-3.5 * math.pi) == pytest.approx(0.5 * math.pi)


def test_circle_pose_round_trip():
    c = CirclePath(15.0)
    for s in (0.0, 5.0, 23.0, 80.0):
        x, y, phi = c.pose(s)
        s2, e, phi2 = c.project(x, y, s_hint=s)
        assert s2 == pytest.approx(s, abs=1e-9)
        assert e == pytest.approx(0.0, abs=1e-9)
        assert wrap_angle(phi2 - phi) == pytest.approx(0.0, abs=1e-9)


def test_circle_signed_lateral_error():
    """e is positive to the left of the tangent, for either turn direction."""
    c = CirclePath(15.0)  # counter-clockwise, center at (0, 15)
    s, e, _ = c.project(0.0, 0.1, s_hint=0.0)
    assert e == pytest.approx(0.1, abs=1e-9)
    cw = CirclePath(-15.0)  # clockwise: (0, 0.1) is outboard but still left
    s, e, _ = cw.project(0.0, 0.1, s_hint=0.0)
    assert e == pytest.approx(0.1, abs=1e-9)


def test_circle_multilap_unwrap():
    c = CirclePath(15.0)
    L = 2.0 * math.pi * 15.0
    x, y, _ = c.pose(3.0)
    s, _, _ = c.project(x, y, s_hint=L + 2.5)
    assert s == pytest.approx(L + 3.0, abs=1e-9)


def _straight_transition(nodes, s):
    """A DynamicTrajectory through hand-made positions at distances s."""
    states = np.zeros((len(s), IX.n))
    states[:, [IX.X, IX.Y]] = nodes
    states[:, IX.s] = s
    return DynamicTrajectory(t=np.arange(len(s), dtype=float), states=states,
                             inputs=np.zeros((len(s) - 1, 2)), h=1.0, J=0.0,
                             input_cost=0.0, distance_cost=0.0,
                             terminal_residual=0.0, max_defect=0.0, n_outer=0)


def test_polyline_straight_segment():
    """A transition is its own centerline, a polyline whose chords between
    the nodes are keyed by the nodes' s, not by their lengths: a 10 m chord
    spans 12 m of s here, the next one 6 m."""
    tr = _straight_transition([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]],
                              [2.0, 14.0, 20.0])
    s, e, phi = tr.project(5.0, 0.3, s_hint=0.0)
    assert (s, e, phi) == (pytest.approx(8.0), pytest.approx(0.3), 0.0)
    assert tr.project(5.0, -0.3, s_hint=0.0)[1] == pytest.approx(-0.3)
    # heading +Y, so +X lies to the right
    s, e, phi = tr.project(10.2, 5.0, s_hint=0.0)
    assert s == pytest.approx(17.0)
    assert e == pytest.approx(-0.2)
    assert phi == pytest.approx(math.pi / 2.0)
    x, y, phi = tr.pose(17.0)
    assert (x, y) == (pytest.approx(10.0), pytest.approx(5.0))
    assert phi == pytest.approx(math.pi / 2.0)
    # both ends clamp: feet and poses stay on the first and last chord
    assert tr.project(-3.0, 1.0, s_hint=0.0) == (2.0, 1.0, 0.0)
    assert tr.project(10.0, 14.0, s_hint=0.0)[0] == 20.0
    assert tr.pose(-5.0) == (0.0, 0.0, 0.0)
    assert tr.pose(30.0)[:2] == (10.0, 10.0)


def test_figure8_course_projection(figure8_plan):
    """The figure-8 plan is its own centerline: points that ``sample``
    places on either circle project back to their s, the transition's nodes
    and every point between them to their planned distance, and both
    breaks belong to the transition for ``sample`` and ``project`` alike."""
    plan = figure8_plan
    assert plan.path() is plan
    for s in np.concatenate([np.linspace(0.0, plan.s_break1, 9)[:-1],
                             np.linspace(plan.s_break2, plan.total_arc, 9)[1:]]):
        st = plan.sample(float(s))[0]
        s2, e, _ = plan.project(st.X, st.Y, float(s))
        assert s2 == pytest.approx(s, abs=1e-6)
        assert e == pytest.approx(0.0, abs=1e-6)

    pts = plan.transition.states[:, [IX.X, IX.Y]]
    for k in range(0, len(pts), 7):
        s2, e, _ = plan.project(*pts[k], float(plan.transition.s[k]))
        assert s2 == pytest.approx(plan.transition.s[k], abs=1e-9)
        assert e == pytest.approx(0.0, abs=1e-9)
    assert_transition_projects_back(plan)

    for s_break in (plan.s_break1, plan.s_break2):
        assert plan._segment(s_break) == 1
        got, want = plan.sample(s_break), plan.transition.sample(s_break)
        assert got[0] == want[0] and got[2] == want[2]
    assert plan._segment(np.nextafter(plan.s_break1, 0.0)) == 0
    assert plan._segment(np.nextafter(plan.s_break2, np.inf)) == 2
