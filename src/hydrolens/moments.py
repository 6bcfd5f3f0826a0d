"""Closed-form second moments of the localized hydrogenic state.

All moments are computed and stored dimensionless: lengths in units of a0,
momenta in units of hbar/a0.  Dimensionful values are obtained by multiplying
by the appropriate powers of a0 and hbar/a0 at the boundary.

First moments vanish identically by parity, and so does every mixed product
but one pair, <x p_y> = -<y p_x> = m hbar/2 (half of <L_z>), which this
module leaves out.  The variances below therefore determine the covariance
for m = 0, and for m != 0 they give a block-diagonal model that lacks that
pair.  Each relative-coordinate variance is a rational (Bethe & Salpeter
1957): a radial moment <r^2> or <k^2> times an angular factor f_perp or
f_z, and it is rounded once, as one int / int true division.

The module loads neither fractions nor numpy: com_moments takes a numpy
array as it takes a float.
"""

from __future__ import annotations

from .states import QuantumNumbers

# The a0/b on which both centre-of-mass variances, and the nu built from them
# for any n below 1e20, are normal floats.  NaN and +-inf fall outside it.
_RATIO_RANGE = (1e-100, 1e100)


def relative_moments(qn: QuantumNumbers) -> tuple[float, float, float, float, float, float]:
    """Dimensionless (x2, y2, z2, px2, py2, pz2) for the relative coordinate.

        <r^2> = n^2 (5n^2 + 1 - 3l(l+1)) / 2,    <k^2> = 1/n^2,
        f_perp = <sin^2 theta cos^2 phi> = (l^2 + l + m^2 - 1) / ((2l-1)(2l+3)),
        f_z = <cos^2 theta> = 1 - 2 f_perp,

    with <x^2> = <y^2> = <r^2> f_perp, <z^2> = <r^2> f_z and the momentum
    variances likewise against <k^2>.  Each variance is one ratio of exact
    ints, divided by int / int true division, which rounds the exact quotient
    once: the correctly rounded float, as float(Fraction(...)) gives it.
    Not cached: gaussian_ppt's one per-state cache holds them.  Where <x^2>
    or <z^2>, which reach (5/6) n^4 at l = 0, leaves the float range (from
    n = 1.21e77 at l = 0), raises OverflowError naming (n, l, m).
    """
    # By name, not by unpacking: a plain tuple is not a validated state.
    n, l, m = qn.n, qn.l, qn.m
    r2 = n * n * (5 * n * n + 1 - 3 * l * (l + 1))  # 2 <r^2>
    fp, fd = l * l + l + m * m - 1, (2 * l - 1) * (2 * l + 3)  # f_perp = fp / fd
    fz = fd - 2 * fp  # f_z = fz / fd
    try:
        x2, z2 = r2 * fp / (2 * fd), r2 * fz / (2 * fd)
    except OverflowError:
        raise OverflowError(f"second moments overflow a float at n={n}, l={l}, m={m}") from None
    px2, pz2 = fp / (n * n * fd), fz / (n * n * fd)
    return (x2, x2, z2, px2, px2, pz2)


def com_moments(a0_over_b: float) -> tuple[float, float]:
    """Dimensionless centre-of-mass variances (<X^2>, <P_X^2>), each shared by
    all three axes: b^2/(2 a0^2) and a0^2/(2 b^2).  Their product is exactly
    1/4 (minimum-uncertainty Gaussian).  a0_over_b may be a float or a numpy
    array; every entry must lie in [1e-100, 1e100].  A numpy scalar or 0-d
    array is taken as the Python float of its value, so its variances have
    the bits of the float call, and numpy neither warns about a later scalar
    product nor computes in float32.

    For a Python float or int the range check is two comparisons and an &
    on plain bools, and a rejected value names itself in the error message;
    ok.all() runs only for numpy inputs, and an array that fails names its
    first offending entry, found by the mask ~ok."""
    if type(a0_over_b) is not float and getattr(a0_over_b, "shape", None) == ():
        a0_over_b = float(a0_over_b)
    lo, hi = _RATIO_RANGE
    ok = (a0_over_b >= lo) & (a0_over_b <= hi)
    if not (ok is True or (ok is not False and ok.all())):
        bad = a0_over_b if ok is False else a0_over_b[~ok].flat[0]
        raise ValueError(f"a0/b ratio must lie in [{lo:g}, {hi:g}], got {bad}")
    return 0.5 / (a0_over_b * a0_over_b), 0.5 * a0_over_b * a0_over_b
