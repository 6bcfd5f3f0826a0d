"""|Y^m_l|^2, the one special function the library evaluates outside
hydrogenic, by a three-term recurrence in degree on a float or a numpy
array argument.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.cache
def _sectoral_seed(m: int) -> float:
    """sqrt((2m+1)/(4 pi) prod_{i=1..m} (2i-1)/(2i)), the m >= 0 seed of the
    recurrence below: |Y^m_m| / sin^m(theta)."""
    return math.sqrt((2 * m + 1) / (4.0 * math.pi) * math.prod(
        (2 * i - 1) / (2 * i) for i in range(1, m + 1)))


def spherical_harmonic_sq(l: int, m: int, theta):
    """|Y^m_l(theta, phi)|^2, which is independent of phi.

    Runs the recurrence in degree on the normalised harmonics Ybar_l^m, with
    |Ybar_l^m| = |Y^m_l| and x = cos(theta):

        Ybar_m   = sqrt((2m+1)/(4 pi) prod_{i=1..m} (2i-1)/(2i)) sin^m(theta),
        Ybar_l   = a_l (x Ybar_{l-1} - Ybar_{l-2}/a_{l-1}),
        a_l      = sqrt((4l^2-1)/(l^2-m^2)),

    for m = |m|.  No (l+m)! is formed, so no intermediate overflows at any
    l.  theta may be a float or a numpy array; a 0-d theta gives a float.

    A 0-d theta is worked in Python floats: oracle.integrate_theta calls
    this once per node, and numpy scalars would make each call about twice
    as slow.  The isinstance test skips np.ndim, which is slow on a float.
    The seed's O(m) product depends on m alone, so it is cached per m, one
    float each; the a_l are recomputed on every call, so a sweep to large l
    holds nothing per (l, m).
    """
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    m = abs(m)
    if isinstance(theta, (int, float)) or np.ndim(theta) == 0:
        theta = float(theta)
        x, s = math.cos(theta), math.sin(theta)
    else:
        theta = np.asarray(theta, dtype=float)
        x, s = np.cos(theta), np.sin(theta)
    y, y_prev, a_prev = _sectoral_seed(m) * s ** m, 0.0, 1.0
    for k in range(m + 1, l + 1):
        a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
        y, y_prev, a_prev = a * (x * y - y_prev / a_prev), y, a
    return y * y
