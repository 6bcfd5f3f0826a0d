"""Special functions used throughout the library.

Associated Laguerre polynomials are evaluated in the older Rodrigues-style
convention (the one with the extra factorial scaling), because the hydrogenic
radial normalisation prefactor in this code base pairs with that convention.
See ``laguerre_assoc`` for the exact relation to the modern convention.
"""

from __future__ import annotations

import math

import numpy as np


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.factorial(n)


def laguerre_assoc(p: int, q_minus_p: int, x: float) -> float:
    """Associated Laguerre polynomial L^p_{q-p}(x), Rodrigues-style convention.

    Defined through L_q(x) = e^x (d/dx)^q (e^{-x} x^q) and
    L^p_{q-p}(x) = (-1)^p (d/dx)^p L_q(x).  Relative to the modern convention
    this carries an extra factor q!:  L^p_{q-p}(x) = q! * Lmod^{(p)}_{q-p}(x).
    """
    if p < 0 or q_minus_p < 0:
        raise ValueError(f"invalid Laguerre indices p={p}, q-p={q_minus_p}")
    if not math.isfinite(x):
        raise ValueError(f"Laguerre argument must be finite, got {x}")
    q = p + q_minus_p
    # Modern-convention value by the standard three-term recurrence in degree.
    lk_m1 = 1.0
    if q_minus_p == 0:
        return factorial(q) * lk_m1
    lk = 1.0 + p - x
    for k in range(1, q_minus_p):
        lk, lk_m1 = ((2 * k + 1 + p - x) * lk - (k + p) * lk_m1) / (k + 1), lk
    return factorial(q) * lk


def spherical_harmonic_sq(l: int, m: int, theta):
    """|Y^m_l(theta, phi)|^2, which is independent of phi.

    Runs the recurrence in degree on the normalised harmonics Ybar_l^m, with
    |Ybar_l^m| = |Y^m_l| and x = cos(theta):

        Ybar_m   = sqrt((2m+1)/(4 pi) prod_{i=1..m} (2i-1)/(2i)) sin^m(theta),
        Ybar_l   = a_l (x Ybar_{l-1} - Ybar_{l-2}/a_{l-1}),
        a_l      = sqrt((4l^2-1)/(l^2-m^2)),

    for m = |m|.  No factorial is formed, so no intermediate overflows at any
    l.  theta may be a float or a numpy array; a float theta gives a float.
    """
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    m = abs(m)
    # Python floats for a scalar theta: the quadrature oracles call this once
    # per node, and numpy scalars would make each call about twice as slow.
    if np.ndim(theta) == 0:
        x, s = math.cos(theta), math.sin(theta)
    else:
        theta = np.asarray(theta, dtype=float)
        x, s = np.cos(theta), np.sin(theta)
    seed = (2 * m + 1) / (4.0 * math.pi) * math.prod(
        (2 * i - 1) / (2 * i) for i in range(1, m + 1))
    y, y_prev, a_prev = math.sqrt(seed) * s ** m, 0.0, 1.0
    for k in range(m + 1, l + 1):
        a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
        y, y_prev, a_prev = a * (x * y - y_prev / a_prev), y, a
    return y * y


def gegenbauer(alpha, n: int, x: float) -> float:
    """Gegenbauer polynomial C^alpha_n(x) from the generating function
    (1 - 2xs + s^2)^{-alpha} = sum_n C^alpha_n(x) s^n, evaluated by the
    standard three-term recurrence.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError(f"Gegenbauer parameter must be positive, got {alpha}")
    if n < 0:
        raise ValueError(f"Gegenbauer degree must be >= 0, got {n}")
    if n == 0:
        return 1.0
    c_m1 = 1.0
    c = 2.0 * alpha * x
    for k in range(2, n + 1):
        c, c_m1 = (2.0 * x * (k + alpha - 1.0) * c - (k + 2.0 * alpha - 2.0) * c_m1) / k, c
    return c
