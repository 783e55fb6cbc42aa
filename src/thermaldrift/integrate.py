"""Fixed-step classical Runge-Kutta integration."""

from __future__ import annotations

__all__ = ["rk4", "rk4_floats"]


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


def rk4_floats(f, y, h, *args):
    """One RK4 step of ``y' = f(y, *args)`` on a sequence of floats.

    ``f`` takes and returns a sequence of floats; the step is a list.  Each
    element goes through :func:`rk4`'s operations in :func:`rk4`'s order, so
    the two forms give the same bits.  This form spares a short state
    vector numpy's cost per operation.
    """
    hh = 0.5 * h
    k1 = f(y, *args)
    k2 = f([a + hh * b for a, b in zip(y, k1)], *args)
    k3 = f([a + hh * b for a, b in zip(y, k2)], *args)
    k4 = f([a + h * b for a, b in zip(y, k3)], *args)
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
