"""|Y^m_l|^2 at one float angle, by a three-term recurrence in degree.

One loop serves every angle: it runs on a mantissa and a power-of-two
exponent, which stays 0, and so changes no bit, unless the seed underflows.

Only the oracle side calls it: verify, the tests and perfbench, through
oracle.integrate_theta, one node at a time.  So it works in Python floats
and loads no numpy.
"""

from __future__ import annotations

import functools
import math
import sys

# A seed below the smallest normal float has lost bits, or all of them.
_TINY = sys.float_info.min
# While its exponent is not 0, the recurrence divides y by 2^_RESCALE
# whenever |y| passes it, so y * y stays finite.
_RESCALE = 400
_BIG, _SHRINK = 2.0 ** _RESCALE, 2.0 ** -_RESCALE


@functools.cache
def _sectoral_seed(m: int) -> float:
    """sqrt((2m+1)/(4 pi) prod_{i=1..m} (2i-1)/(2i)), the m >= 0 seed of the
    recurrence below: |Y^m_m| / sin^m(theta)."""
    return math.sqrt((2 * m + 1) / (4.0 * math.pi) * math.prod(
        (2 * i - 1) / (2 * i) for i in range(1, m + 1)))


def spherical_harmonic_sq(l: int, m: int, theta: float) -> float:
    """|Y^m_l(theta, phi)|^2, which is independent of phi.

    Runs the recurrence in degree on the normalised harmonics Ybar_l^m, with
    |Ybar_l^m| = |Y^m_l| and x = cos(theta):

        Ybar_m   = sqrt((2m+1)/(4 pi) prod_{i=1..m} (2i-1)/(2i)) sin^m(theta),
        Ybar_l   = a_l (x Ybar_{l-1} - Ybar_{l-2}/a_{l-1}),
        a_l      = sqrt((4l^2-1)/(l^2-m^2)),

    for m = |m|.  No (l+m)! is formed, so no intermediate overflows at any
    l.  The seed's O(m) product depends on m alone, so it is cached per m,
    one float each; the a_l are recomputed on every call, so a sweep to
    large l holds nothing per (l, m).

    At large m the seed underflows inside the classically allowed region,
    where |Y|^2 is of order one.  So the recurrence runs on y with
    Ybar = y 2^e: e = 0 and y the plain seed unless that seed is subnormal,
    else (y, e) from _scaled_seed.  The recurrence is linear, so while e is
    not 0, dividing y and y_prev by 2^_RESCALE, which is exact, and adding
    _RESCALE to e keeps the value.  At e = 0 nothing is rescaled: y is Ybar
    itself, below sqrt((2l+1)/(4 pi)).  |Y|^2 is (y^2) 2^(2e), exactly y^2 at
    e = 0, and rounds to a subnormal or to 0 only where it is that small.
    """
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    m = abs(m)
    x, s = math.cos(theta), math.sin(theta)
    y, e = _sectoral_seed(m) * s ** m, 0
    if y < _TINY and -_TINY < y:
        y, e = _scaled_seed(m, s)
    y_prev, a_prev = 0.0, 1.0
    for k in range(m + 1, l + 1):
        a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
        y, y_prev, a_prev = a * (x * y - y_prev / a_prev), y, a
        if e and not -_BIG < y < _BIG:
            y, y_prev, e = y * _SHRINK, y_prev * _SHRINK, e + _RESCALE
    return math.ldexp(y * y, 2 * e)


def _scaled_seed(m: int, s: float) -> tuple[float, int]:
    """(y, e) with y 2^e = _sectoral_seed(m) s^m up to a few roundings, and
    0.5 <= |y| < 1 unless s = 0.  With s = f 2^k and
    0.5 <= |f| < 1, s^m is f^m 2^(km), and f^m is taken in powers of at most
    1000 factors, each at least 2^-1000, renormalised after each."""
    f, k = math.frexp(s)
    y, e = math.frexp(_sectoral_seed(m))
    e += k * m
    while m > 0:
        j = min(m, 1000)
        y, d = math.frexp(y * f ** j)
        e, m = e + d, m - j
    return y, e

