import math

import numpy as np
import pytest

from hydrolens.hydrogenic import QuantumNumbers, radial_momentum, radial_position
from hydrolens.moments import (
    angular_cos2,
    angular_sin2,
    com_moments,
    kramer_pasternack,
    relative_moments,
)
from hydrolens.oracle import integrate_momentum, integrate_semi_infinite, integrate_theta
from hydrolens.specfun import spherical_harmonic_sq

ALL_STATES_N4 = [QuantumNumbers(n, l, m)
                 for n in range(1, 5) for l in range(n) for m in range(-l, l + 1)]


def test_kramer_pasternack_seeds():
    qn = QuantumNumbers(3, 1, 0)
    assert kramer_pasternack(qn, 0) == 1.0
    assert math.isclose(kramer_pasternack(qn, -1), 1.0 / 9.0)
    assert math.isclose(kramer_pasternack(qn, -2), 2.0 / (27.0 * 3.0))


def test_kramer_pasternack_r1_r2_closed_forms():
    for qn in ALL_STATES_N4:
        n, l = qn.n, qn.l
        r1 = 0.5 * (3 * n * n - l * (l + 1))
        r2 = n * n * (5 * n * n - 3 * l * (l + 1) + 1) / 2.0
        assert math.isclose(kramer_pasternack(qn, 1), r1, rel_tol=1e-14)
        assert math.isclose(kramer_pasternack(qn, 2), r2, rel_tol=1e-14)


def test_kramer_pasternack_r3_inverse():
    # <r^-3> = 1 / (n^3 l (l + 1/2) (l + 1)) for l >= 1.
    for qn in [s for s in ALL_STATES_N4 if s.l >= 1]:
        n, l = qn.n, qn.l
        expect = 1.0 / (n ** 3 * l * (l + 0.5) * (l + 1))
        assert math.isclose(kramer_pasternack(qn, -3), expect, rel_tol=1e-13), qn


def test_kramer_pasternack_quadrature():
    for qn in [QuantumNumbers(1, 0, 0), QuantumNumbers(2, 1, 0), QuantumNumbers(3, 2, 0)]:
        for q in (1, 2, 3, 4):
            val, _ = integrate_semi_infinite(
                lambda r: r ** (q + 2) * radial_position(qn, 1.0, r) ** 2)
            assert math.isclose(kramer_pasternack(qn, q), val, rel_tol=1e-9), (qn, q)


def test_kramer_pasternack_divergence_guard():
    with pytest.raises(ValueError):
        kramer_pasternack(QuantumNumbers(1, 0, 0), -2)
    with pytest.raises(ValueError):
        kramer_pasternack(QuantumNumbers(3, 1, 0), -4)


def test_angular_integrals_match_quadrature():
    for l in range(5):
        for m in range(-l, l + 1):
            sin2 = integrate_theta(
                lambda t: math.sin(t) ** 3 * spherical_harmonic_sq(l, m, t))
            cos2 = integrate_theta(
                lambda t: math.sin(t) * math.cos(t) ** 2 * spherical_harmonic_sq(l, m, t))
            assert math.isclose(angular_sin2(l, m), sin2, rel_tol=1e-11), (l, m)
            assert math.isclose(angular_cos2(l, m), cos2, rel_tol=1e-11), (l, m)


def test_angular_closure():
    # int |Y|^2 dOmega = 2 pi int sin |Y|^2 dtheta = 1, and
    # sin = sin^3 + sin cos^2 splits it into the two tabulated pieces.
    for l in range(5):
        for m in range(-l, l + 1):
            s = 2 * math.pi * (angular_sin2(l, m) + angular_cos2(l, m))
            assert math.isclose(s, 1.0, rel_tol=1e-12), (l, m)


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
        sin2 = integrate_theta(
            lambda t: math.sin(t) ** 3 * spherical_harmonic_sq(qn.l, qn.m, t))
        cos2 = integrate_theta(
            lambda t: math.sin(t) * math.cos(t) ** 2 * spherical_harmonic_sq(qn.l, qn.m, t))
        x2, y2, z2, px2, py2, pz2 = relative_moments(qn)
        assert math.isclose(x2, rad_r * sin2 * math.pi, rel_tol=1e-6), qn
        assert math.isclose(y2, rad_r * sin2 * math.pi, rel_tol=1e-6), qn
        assert math.isclose(z2, rad_r * cos2 * 2 * math.pi, rel_tol=1e-6), qn
        assert math.isclose(px2, rad_k * sin2 * math.pi, rel_tol=1e-6), qn
        assert math.isclose(py2, rad_k * sin2 * math.pi, rel_tol=1e-6), qn
        assert math.isclose(pz2, rad_k * cos2 * 2 * math.pi, rel_tol=1e-6), qn


def test_com_moments_minimum_uncertainty():
    for ratio in (0.3, 1.0, 2.7):
        X2, P2 = com_moments(ratio)
        # 1/4 up to the final rounding of the product.
        assert abs(X2 * P2 - 0.25) <= 1e-16
    for bad in (0.0, math.nan, math.inf, -math.inf, 1e200, 1e-200, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            com_moments(bad)

