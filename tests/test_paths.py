import math

import numpy as np
import pytest

from thermaldrift.paths import CirclePath, PolylinePath, wrap_angle
from thermaldrift.trajopt import IX


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


def test_polyline_straight_segment():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    p = PolylinePath(pts)
    assert p.length == pytest.approx(20.0)
    s, e, phi = p.project(5.0, 0.3, s_hint=4.0)
    assert s == pytest.approx(5.0)
    assert e == pytest.approx(0.3)
    assert phi == pytest.approx(0.0)
    x, y, phi = p.pose(15.0)
    assert (x, y) == (pytest.approx(10.0), pytest.approx(5.0))
    assert phi == pytest.approx(math.pi / 2.0)


def test_figure8_course_projection(figure8_plan):
    """The figure-8 plan is its own centerline: points that ``sample``
    places on either circle project back to their s, points on the
    transition project onto its polyline, and both breaks belong to the
    transition for ``sample`` and ``project`` alike."""
    plan = figure8_plan
    assert plan.path() is plan
    for s in np.concatenate([np.linspace(0.0, plan.s_break1, 9)[:-1],
                             np.linspace(plan.s_break2, plan.total_arc, 9)[1:]]):
        st = plan.sample(float(s))[0]
        s2, e, _ = plan.project(st.X, st.Y, float(s))
        assert s2 == pytest.approx(s, abs=1e-6)
        assert e == pytest.approx(0.0, abs=1e-6)

    # the polyline's arc length is the sum of its chords from s_break1; it
    # falls short of the planned distance transition.s (by 1.5 mm at
    # s_break2 on this plan), so the closed loop's s lags the plan's there
    pts = plan.transition.states[:, [IX.X, IX.Y]]
    chord_s = plan.s_break1 + np.concatenate(
        [[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    for k in range(0, len(pts), 7):
        s2, e, _ = plan.project(*pts[k], float(plan.transition.s[k]))
        assert s2 == pytest.approx(chord_s[k], abs=1e-6)
        assert e == pytest.approx(0.0, abs=1e-6)

    for s_break in (plan.s_break1, plan.s_break2):
        assert plan._segment(s_break) == 1
        got, want = plan.sample(s_break), plan.transition.sample(s_break)
        assert got[0] == want[0] and got[2] == want[2]
    assert plan._segment(np.nextafter(plan.s_break1, 0.0)) == 0
    assert plan._segment(np.nextafter(plan.s_break2, np.inf)) == 2
