import math

import numpy as np
import pytest

from thermaldrift.paths import CirclePath, CompositePath, PolylinePath, wrap_angle


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


def test_composite_dispatch():
    seg1 = CirclePath(15.0)
    pts = np.array([seg1.pose(10.0)[:2], np.array(seg1.pose(10.0)[:2])
                    + 5.0 * np.array([math.cos(seg1.pose(10.0)[2]),
                                      math.sin(seg1.pose(10.0)[2])])])
    seg2 = PolylinePath(pts)
    path = CompositePath([(seg1, 10.0), (seg2, 5.0)])
    # inside segment 1
    x, y, _ = seg1.pose(4.0)
    s, e, _ = path.project(x, y, s_hint=4.0)
    assert s == pytest.approx(4.0, abs=1e-9)
    assert e == pytest.approx(0.0, abs=1e-9)
    # inside segment 2 (s continues past the break)
    x, y, _ = seg2.pose(2.0)
    s, e, _ = path.project(x, y, s_hint=11.5)
    assert s == pytest.approx(12.0, abs=1e-6)
    assert e == pytest.approx(0.0, abs=1e-6)
