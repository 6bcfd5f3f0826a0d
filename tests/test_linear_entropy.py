import math
from fractions import Fraction

import pytest

from hydrolens.hydrogenic import QuantumNumbers, radial_momentum
from hydrolens.linear_entropy import angular_sum, linear_entropy, radial_sum
from hydrolens.oracle import integrate_momentum, integrate_theta
from hydrolens.specfun import spherical_harmonic_sq


def _angular_quadrature(l: int, m: int) -> float:
    # int |Y|^4 dOmega = 2 pi int_0^pi sin(theta) |Y|^4 dtheta
    return 2 * math.pi * integrate_theta(
        lambda t: math.sin(t) * spherical_harmonic_sq(l, m, t) ** 2)


def _radial_quadrature(n: int, l: int) -> float:
    qn = QuantumNumbers(n, l, 0)
    val, _ = integrate_momentum(
        lambda k: k * k * radial_momentum(qn, 1.0, k) ** 4, n, 1.0)
    return val


def test_ground_state_product():
    res = linear_entropy(QuantumNumbers(1, 0, 0))
    assert math.isclose(res.product, 33.0 / (16.0 * math.pi ** 2), rel_tol=1e-10)
    assert math.isclose(res.i_ang, 1.0 / (4.0 * math.pi), rel_tol=1e-14)
    assert math.isclose(res.i_rad, 33.0 / (4.0 * math.pi), rel_tol=1e-10)


def test_product_scales_as_a0_cubed():
    r1 = linear_entropy(QuantumNumbers(2, 1, 0), a0=1.0)
    r2 = linear_entropy(QuantumNumbers(2, 1, 0), a0=2.0)
    assert math.isclose(r2.product, 8.0 * r1.product, rel_tol=1e-12)


def test_angular_sum_matches_quadrature():
    for l in range(0, 4):
        for m in range(-l, l + 1):
            assert math.isclose(angular_sum(l, m), _angular_quadrature(l, m),
                                rel_tol=1e-10), (l, m)


def test_angular_sum_even_in_m():
    for l in list(range(1, 13)) + [40]:
        for m in range(1, l + 1):
            assert angular_sum(l, m) == angular_sum(l, -m)


def test_angular_sum_stretched_closed_form():
    # |Y^l_l|^2 = c sin^(2l), so int |Y^l_l|^4 dOmega has the exact form
    # (2l+1)^2 C(2l, l)^2 (2l)!^2 / (4 pi (4l+1)!).  l up to 199 runs past
    # the float overflow of (l + |m|)! at 171.
    for l in list(range(13)) + [40, 80, 149, 199]:
        exact = Fraction((2 * l + 1) ** 2 * math.comb(2 * l, l) ** 2 * math.factorial(2 * l) ** 2,
                         math.factorial(4 * l + 1))
        for m in (l, -l):
            assert math.isclose(angular_sum(l, m), float(exact) / (4 * math.pi),
                                rel_tol=1e-13), (l, m)


def test_radial_sum_matches_quadrature():
    # Every (n, l) with n <= 12, plus spot states; (150, 149) has n+l > 170,
    # where (n+l)! and (n a0 k)^l overflow a float.
    pairs = [(n, l) for n in range(1, 13) for l in range(n)]
    for n, l in pairs + [(40, 0), (40, 39), (150, 149)]:
        closed = radial_sum(n, l)
        quad = _radial_quadrature(n, l)
        assert math.isclose(closed, quad, rel_tol=1e-10), (n, l)


def test_full_product_matches_quadrature():
    for n in range(1, 5):
        for l in range(n):
            for m in range(0, l + 1):
                closed = linear_entropy(QuantumNumbers(n, l, m)).product
                quad = _radial_quadrature(n, l) * _angular_quadrature(l, m)
                assert closed > 0 and math.isfinite(closed)
                assert math.isclose(closed, quad, rel_tol=1e-10), (n, l, m)


def test_radial_sum_is_m_independent():
    # m enters only through the angular factor.
    a = linear_entropy(QuantumNumbers(3, 2, 0))
    b = linear_entropy(QuantumNumbers(3, 2, 2))
    assert a.i_rad == b.i_rad
    assert a.i_ang != b.i_ang


def test_s_lin_limits():
    res = linear_entropy(QuantumNumbers(1, 0, 0))
    assert res.s_lin() == 1.0
    assert res.s_lin(math.inf) == 1.0
    assert math.isclose(res.s_lin(10.0), 1.0 - res.product / 10.0)
    with pytest.raises(ValueError):
        res.s_lin(-1.0)
    with pytest.raises(ValueError):
        res.s_lin(math.nan)


def test_validation():
    with pytest.raises(ValueError):
        angular_sum(1, 2)
    with pytest.raises(ValueError):
        radial_sum(1, 1)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            radial_sum(2, 0, a0=bad)
        with pytest.raises(ValueError):
            linear_entropy(QuantumNumbers(2, 1, 0), a0=bad)
