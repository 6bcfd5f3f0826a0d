"""Closed-form first and second moments of the localized hydrogenic state.

All moments are computed and stored dimensionless: lengths in units of a0,
momenta in units of hbar/a0.  Dimensionful values are obtained by multiplying
by the appropriate powers of a0 and hbar/a0 at the boundary.

First moments vanish identically by parity, and so do all mixed products
(<x p_x> etc.), so in the relative and centre-of-mass coordinates the
covariance matrix is diagonal and the variances below determine it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .hydrogenic import QuantumNumbers

_PI = 3.141592653589793

# The a0/b on which both centre-of-mass variances, and the nu built from them
# for any n below 1e20, are normal floats.  NaN and +-inf fall outside it.
_RATIO_RANGE = (1e-100, 1e100)


def kramer_pasternack(qn: QuantumNumbers, q: int) -> float:
    """Radial moment <r^q> in units of a0^q via the three-term recursion

        4(q+1)<r^q> - 4 n^2 (2q+1)<r^{q-1}> + n^2 q [(2l+1)^2 - q^2]<r^{q-2}> = 0.

    Seeded with <r^0> = 1 (normalization), <r^-1> = 1/n^2 and
    <r^-2> = 2/(n^3 (2l+1)); the two negative-power seeds are standard results
    not derivable from the recursion itself.
    """
    n, l = qn.n, qn.l
    if q <= -2 * l - 2:
        raise ValueError(f"<r^{q}> diverges for l={l} (need q > -2l-2)")
    seeds = {
        0: Fraction(1),
        -1: Fraction(1, n * n),
        -2: Fraction(2, n ** 3 * (2 * l + 1)),
    }
    if q in seeds:
        return float(seeds[q])
    n2 = Fraction(n * n)
    if q > 0:
        lo, hi = seeds[-1], seeds[0]
        for p in range(1, q + 1):
            nxt = (4 * n2 * (2 * p + 1) * hi - n2 * p * ((2 * l + 1) ** 2 - p * p) * lo) \
                / (4 * (p + 1))
            lo, hi = hi, nxt
        return float(hi)
    # q <= -3: run the recursion downward, solving for <r^{p-2}>.
    hi, lo = seeds[-1], seeds[-2]
    for p in range(-1, q + 1, -1):
        denom = n2 * p * ((2 * l + 1) ** 2 - p * p)
        nxt = (4 * n2 * (2 * p + 1) * lo - 4 * (p + 1) * hi) / denom
        hi, lo = lo, nxt
    return float(lo)


def angular_sin2(l: int, m: int) -> float:
    """int_0^pi sin^3(theta) |Y^m_l|^2 dtheta = (l^2+l+m^2-1)/(pi (2l-1)(2l+3)).

    Evaluated as a single rational expression: numerator and denominator are
    simultaneously negative at l=0, so intermediate signs are not meaningful.
    """
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    val = Fraction(l * l + l + m * m - 1, (2 * l - 1) * (2 * l + 3))
    assert val > 0
    return float(val) / _PI


def angular_cos2(l: int, m: int) -> float:
    """int_0^pi sin(theta) cos^2(theta) |Y^m_l|^2 dtheta
    = (1 - 2l^2 - 2l + 2m^2) / (2 pi (3 - 4l^2 - 4l)).
    """
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    val = Fraction(1 - 2 * l * l - 2 * l + 2 * m * m, 3 - 4 * l * l - 4 * l)
    assert val > 0
    return float(val) / (2.0 * _PI)


@lru_cache(maxsize=None)
def relative_moments(qn: QuantumNumbers) -> tuple[float, float, float, float, float, float]:
    """Dimensionless (x2, y2, z2, px2, py2, pz2) for the relative coordinate.

    <x^2> = <y^2> = <r^2> * pi * angular_sin2 and <z^2> = <r^2> * 2 pi *
    angular_cos2, with <r^2> from the Kramer-Pasternack closed form; the
    momentum variances carry the same angular factors against <k^2> = 1/n^2.
    Cached per state, so the exact rational arithmetic runs once.
    """
    l, m = qn.l, qn.m
    r2 = kramer_pasternack(qn, 2)
    k2 = 1.0 / (qn.n * qn.n)
    f_perp = _PI * angular_sin2(l, m)
    f_z = 2.0 * _PI * angular_cos2(l, m)
    return (r2 * f_perp, r2 * f_perp, r2 * f_z, k2 * f_perp, k2 * f_perp, k2 * f_z)


def com_moments(a0_over_b: float) -> tuple[float, float]:
    """Dimensionless centre-of-mass variances (<X^2>, <P_X^2>), each shared by
    all three axes: b^2/(2 a0^2) and a0^2/(2 b^2).  Their product is exactly
    1/4 (minimum-uncertainty Gaussian).  a0_over_b may be a float or a numpy
    array; every entry must lie in [1e-100, 1e100]."""
    ratio = np.asarray(a0_over_b)
    ok = (ratio >= _RATIO_RANGE[0]) & (ratio <= _RATIO_RANGE[1])
    if not np.all(ok):
        raise ValueError(f"a0/b ratio must lie in [{_RATIO_RANGE[0]:g}, {_RATIO_RANGE[1]:g}], "
                         f"got {ratio[~ok].flat[0]}")
    return 0.5 / (a0_over_b * a0_over_b), 0.5 * a0_over_b * a0_over_b

