"""Fixed-step classical Runge-Kutta integration."""

from __future__ import annotations

__all__ = ["rk4"]


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
