"""Fixed-step classical Runge-Kutta integration and scalar Jacobians."""

from __future__ import annotations

__all__ = ["rk4", "central_differences"]


def rk4(f, y, h, *args):
    """One RK4 step of ``y' = f(y, *args)``.

    Works for any ``y`` supporting scalar multiplication and addition
    (floats, numpy arrays).
    """
    k1 = f(y, *args)
    k2 = f(y + 0.5 * h * k1, *args)
    k3 = f(y + 0.5 * h * k2, *args)
    k4 = f(y + h * k3, *args)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _fd_step(value: float) -> float:
    return 1e-6 * max(1.0, abs(value))


def central_differences(f, z):
    """Jacobian columns of ``f(*z)`` at the floats ``z``, column j the central
    difference in ``z[j]`` with step ``_fd_step(z[j])``; None if ``f``
    returns None (outside its domain) at any stencil point."""
    columns = []
    for j, value in enumerate(z):
        h = _fd_step(value)
        plus, minus = list(z), list(z)
        plus[j] += h
        minus[j] -= h
        fp, fm = f(*plus), f(*minus)
        if fp is None or fm is None:
            return None
        columns.append([(a - b) / (2.0 * h) for a, b in zip(fp, fm)])
    return columns
