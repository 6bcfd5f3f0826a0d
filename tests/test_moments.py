import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hydrolens.hydrogenic import QuantumNumbers, radial_momentum, radial_position
from hydrolens.moments import com_moments, relative_moments
from hydrolens.oracle import integrate_momentum, integrate_semi_infinite, integrate_theta
from hydrolens.specfun import spherical_harmonic_sq

ALL_STATES_N4 = [QuantumNumbers(n, l, m)
                 for n in range(1, 5) for l in range(n) for m in range(-l, l + 1)]


def _angular_quadratures(l, m):
    """(f_perp, f_z) as pi int sin^3 |Y|^2 and 2 pi int sin cos^2 |Y|^2."""
    sin2 = integrate_theta(lambda t: math.sin(t) ** 3 * spherical_harmonic_sq(l, m, t))
    cos2 = integrate_theta(
        lambda t: math.sin(t) * math.cos(t) ** 2 * spherical_harmonic_sq(l, m, t))
    return math.pi * sin2, 2 * math.pi * cos2


def test_relative_moments_are_correctly_rounded():
    # Each variance is the float of its exact Fraction, bit for bit, for every
    # state with n <= 60 and three Rydberg states.  <cos^2 theta> comes from
    # the cos(theta) ladder Y_l^m -> Y_{l+1}^m, Y_{l-1}^m, an independent form
    # of f_z; f_perp = <sin^2 theta>/2.
    states = [(n, l, m) for n in range(1, 61) for l in range(n) for m in range(-l, l + 1)]
    states += [(100, 50, 0), (200, 0, 0), (200, 199, 199)]
    for n, l, m in states:
        f_z = (Fraction((l + 1) ** 2 - m * m, (2 * l + 1) * (2 * l + 3))
               + Fraction(l * l - m * m, (2 * l - 1) * (2 * l + 1)))
        f_perp = (1 - f_z) / 2
        r2 = Fraction(n * n * (5 * n * n + 1 - 3 * l * (l + 1)), 2)
        k2 = Fraction(1, n * n)
        expect = tuple(float(a * f) for a in (r2, k2) for f in (f_perp, f_perp, f_z))
        assert relative_moments(QuantumNumbers(n, l, m)) == expect, (n, l, m)


def test_angular_integrals_match_quadrature():
    # With n = l + 1, n^2 <p_i^2> is the angular factor itself.
    for l in range(12):
        for m in range(-l, l + 1):
            f_perp, f_z = _angular_quadratures(l, m)
            _, _, _, px2, _, pz2 = relative_moments(QuantumNumbers(l + 1, l, m))
            n2 = (l + 1) ** 2
            assert math.isclose(n2 * px2, f_perp, rel_tol=1e-11), (l, m)
            assert math.isclose(n2 * pz2, f_z, rel_tol=1e-11), (l, m)


def test_moment_sum_rules():
    for n in range(1, 7):
        for l in range(n):
            for m in range(-l, l + 1):
                qn = QuantumNumbers(n, l, m)
                x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
                r2 = n * n * (5 * n * n - 3 * l * (l + 1) + 1) / 2.0
                assert abs(x2 + y2 + z2 - r2) <= 1e-12 * r2, qn
                assert abs(px2 + py2 + pz2 - 1.0 / (n * n)) <= 1e-12, qn


def test_individual_moments_match_quadrature():
    for qn in ALL_STATES_N4:
        rad_r, _ = integrate_semi_infinite(
            lambda r: r ** 4 * radial_position(qn, 1.0, r) ** 2)
        rad_k, _ = integrate_momentum(
            lambda k: k ** 4 * radial_momentum(qn, 1.0, k) ** 2, qn.n, 1.0)
        f_perp, f_z = _angular_quadratures(qn.l, qn.m)
        quad = (rad_r * f_perp, rad_r * f_perp, rad_r * f_z,
                rad_k * f_perp, rad_k * f_perp, rad_k * f_z)
        for closed, q in zip(relative_moments(qn), quad):
            assert math.isclose(closed, q, rel_tol=1e-11), qn


def test_com_moments_minimum_uncertainty():
    for ratio in (0.3, 1.0, 2.7):
        X2, P2 = com_moments(ratio)
        # 1/4 up to the final rounding of the product.
        assert abs(X2 * P2 - 0.25) <= 1e-16
    for bad in (0.0, math.nan, math.inf, -math.inf, 1e200, 1e-200, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            com_moments(bad)


def test_com_moments_scalar_types():
    # numpy scalars, 0-d arrays and ints take the same closed form as a float.
    want = com_moments(2.0)
    for ratio in (np.float64(2.0), np.array(2.0), 2):
        assert com_moments(ratio) == want, type(ratio)
    # Each rejection names the value that failed the range check.
    for bad, shown in ((np.float64(math.nan), "nan"), (np.array(math.nan), "nan"),
                       (1e200, "1e+200")):
        with pytest.raises(ValueError, match=re.escape(f"got {shown}") + "$"):
            com_moments(bad)



def test_relative_moments_overflow_names_the_state():
    # <x^2> = (5/6) n^4 at l = 0 leaves the float range from n = 1.21e77; the
    # int / int division's own OverflowError gives way to one naming the state.
    relative_moments(QuantumNumbers(10 ** 77, 0, 0))
    for qn in (QuantumNumbers(2 * 10 ** 77, 0, 0), QuantumNumbers(10 ** 80, 1, -1)):
        with pytest.raises(OverflowError) as exc:
            relative_moments(qn)
        assert str(exc.value) == (
            f"second moments overflow a float at n={qn.n}, l={qn.l}, m={qn.m}")
