"""Special functions used throughout the library: |Y^m_l|^2 and the
Gegenbauer polynomials.  Each runs a three-term recurrence in degree
directly on a float or a numpy array argument.
"""

from __future__ import annotations

import math

import numpy as np


def _float_or_array(x):
    """x as a Python float if it is 0-d, else as a float array.

    Python floats for a scalar: oracle.integrate_theta calls its integrand,
    and so spherical_harmonic_sq, once per node with a float, and numpy
    scalars would make each call about twice as slow.  The isinstance test
    skips np.ndim, which is slow on a float.
    """
    if isinstance(x, (int, float)) or np.ndim(x) == 0:
        return float(x)
    return np.asarray(x, dtype=float)


def spherical_harmonic_sq(l: int, m: int, theta):
    """|Y^m_l(theta, phi)|^2, which is independent of phi.

    Runs the recurrence in degree on the normalised harmonics Ybar_l^m, with
    |Ybar_l^m| = |Y^m_l| and x = cos(theta):

        Ybar_m   = sqrt((2m+1)/(4 pi) prod_{i=1..m} (2i-1)/(2i)) sin^m(theta),
        Ybar_l   = a_l (x Ybar_{l-1} - Ybar_{l-2}/a_{l-1}),
        a_l      = sqrt((4l^2-1)/(l^2-m^2)),

    for m = |m|.  No (l+m)! is formed, so no intermediate overflows at any
    l.  theta may be a float or a numpy array; a float theta gives a float.
    """
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    m = abs(m)
    theta = _float_or_array(theta)
    if isinstance(theta, float):
        x, s = math.cos(theta), math.sin(theta)
    else:
        x, s = np.cos(theta), np.sin(theta)
    seed = (2 * m + 1) / (4.0 * math.pi) * math.prod(
        (2 * i - 1) / (2 * i) for i in range(1, m + 1))
    y, y_prev, a_prev = math.sqrt(seed) * s ** m, 0.0, 1.0
    for k in range(m + 1, l + 1):
        a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
        y, y_prev, a_prev = a * (x * y - y_prev / a_prev), y, a
    return y * y


def gegenbauer(alpha, n: int, x):
    """Gegenbauer polynomial C^alpha_n(x) from the generating function
    (1 - 2xs + s^2)^{-alpha} = sum_n C^alpha_n(x) s^n, evaluated by the
    standard three-term recurrence.  x may be a float or a numpy array; a
    float x gives a float.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError(f"Gegenbauer parameter must be positive, got {alpha}")
    if n < 0:
        raise ValueError(f"Gegenbauer degree must be >= 0, got {n}")
    x = _float_or_array(x)
    c_m1 = 1.0 if isinstance(x, float) else np.ones_like(x)
    if n == 0:
        return c_m1
    c = 2.0 * alpha * x
    for k in range(2, n + 1):
        c, c_m1 = (2.0 * x * (k + alpha - 1.0) * c - (k + 2.0 * alpha - 2.0) * c_m1) / k, c
    return c
