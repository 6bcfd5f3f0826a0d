import math
from fractions import Fraction

import pytest

from hydrolens.specfun import (
    ExactSqrt,
    gegenbauer,
    laguerre_assoc,
    legendre_assoc,
    spherical_harmonic_sq,
    three_j_selection_rules_ok,
    wigner3j,
)


def test_laguerre_degree_zero_is_q_factorial():
    # L^p_0 = q! in the Rodrigues-style convention (q = p here).
    assert laguerre_assoc(3, 0, 2.7) == math.factorial(3)
    assert laguerre_assoc(0, 0, 5.0) == 1.0


def test_laguerre_against_modern_convention():
    # L^1_1(x) in the modern convention is 2 - x; here it carries q! = 2!.
    for x in (0.0, 0.5, 1.0, 3.25):
        assert math.isclose(laguerre_assoc(1, 1, x), 2.0 * (2.0 - x), rel_tol=1e-14)


def test_laguerre_plain_low_degrees():
    # p = 0 reduces to q! times the plain Laguerre polynomial.
    for x in (0.0, 0.3, 1.7):
        assert math.isclose(laguerre_assoc(0, 1, x), 1.0 - x, abs_tol=1e-14)
        assert math.isclose(laguerre_assoc(0, 2, x), 2.0 * (1.0 - 2.0 * x + x * x / 2.0),
                            rel_tol=1e-13, abs_tol=1e-13)


def test_laguerre_invalid_args():
    with pytest.raises(ValueError):
        laguerre_assoc(-1, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre_assoc(0, -1, 1.0)
    with pytest.raises(ValueError):
        laguerre_assoc(0, 1, math.inf)


def test_legendre_low_orders():
    for x in (-0.9, -0.2, 0.0, 0.4, 1.0):
        assert math.isclose(legendre_assoc(0, 0, x), 1.0)
        assert math.isclose(legendre_assoc(1, 0, x), x, abs_tol=1e-15)
        assert math.isclose(legendre_assoc(2, 0, x), 0.5 * (3 * x * x - 1), abs_tol=1e-15)
        s = math.sqrt(1 - x * x)
        # No Condon-Shortley phase: P_11 = sqrt(1-x^2), positive.
        assert math.isclose(legendre_assoc(1, 1, x), s, abs_tol=1e-15)
        assert math.isclose(legendre_assoc(2, 1, x), 3 * x * s, abs_tol=1e-14)


def test_legendre_invalid_args():
    with pytest.raises(ValueError):
        legendre_assoc(1, 2, 0.5)
    with pytest.raises(ValueError):
        legendre_assoc(2, -1, 0.5)
    with pytest.raises(ValueError):
        legendre_assoc(2, 0, 1.5)


def test_spherical_harmonic_sq_values():
    # |Y^0_0|^2 = 1/(4 pi) everywhere; |Y^0_1|^2 = 3 cos^2/(4 pi).
    for theta in (0.0, 0.7, math.pi / 2, 2.5):
        assert math.isclose(spherical_harmonic_sq(0, 0, theta), 1 / (4 * math.pi))
        assert math.isclose(spherical_harmonic_sq(1, 0, theta),
                            3 * math.cos(theta) ** 2 / (4 * math.pi), abs_tol=1e-16)
    # m and -m give the same magnitude.
    assert math.isclose(spherical_harmonic_sq(3, 2, 1.1), spherical_harmonic_sq(3, -2, 1.1))


def test_gegenbauer_low_degrees():
    for x in (-0.8, 0.0, 0.3, 1.0):
        for alpha in (1.0, 2.5):
            assert gegenbauer(alpha, 0, x) == 1.0
            assert math.isclose(gegenbauer(alpha, 1, x), 2 * alpha * x, abs_tol=1e-15)
            assert math.isclose(gegenbauer(alpha, 2, x),
                                2 * alpha * (alpha + 1) * x * x - alpha, abs_tol=1e-14)


def test_gegenbauer_invalid_args():
    with pytest.raises(ValueError):
        gegenbauer(0.0, 1, 0.5)
    with pytest.raises(ValueError):
        gegenbauer(1.0, -1, 0.5)


def test_exact_sqrt_algebra():
    a = ExactSqrt(Fraction(1, 2), Fraction(2))
    b = ExactSqrt(Fraction(1, 4), Fraction(8))
    assert a == b
    assert a.squared() == Fraction(1, 2)
    assert math.isclose(float(a), math.sqrt(2) / 2)
    assert ExactSqrt.ZERO == ExactSqrt(Fraction(0), Fraction(7))
    assert a != ExactSqrt(Fraction(-1, 2), Fraction(2))


def test_selection_rules():
    assert three_j_selection_rules_ok(1, 1, 2, 0, 0, 0)
    assert not three_j_selection_rules_ok(1, 1, 3, 0, 0, 0)
    assert not three_j_selection_rules_ok(1, 1, 2, 1, 1, 1)
    assert not three_j_selection_rules_ok(1, 1, 2, 2, -2, 0)


def test_wigner3j_known_values():
    assert wigner3j(0, 0, 0, 0, 0, 0) == ExactSqrt(Fraction(1), Fraction(1))
    # (1 1 2; 0 0 0) = sqrt(2/15)
    assert wigner3j(1, 1, 2, 0, 0, 0).squared() == Fraction(2, 15)
    assert float(wigner3j(1, 1, 2, 0, 0, 0)) > 0
    # (1 1 0; 0 0 0) = -1/sqrt(3)
    v = wigner3j(1, 1, 0, 0, 0, 0)
    assert v.squared() == Fraction(1, 3)
    assert float(v) < 0
    # (l l l'; 0 0 0) vanishes for odd sums.
    assert wigner3j(1, 1, 1, 0, 0, 0) == ExactSqrt.ZERO
    assert wigner3j(2, 2, 3, 0, 0, 0) == ExactSqrt.ZERO


def test_wigner3j_selection_violation_is_zero():
    assert wigner3j(1, 1, 5, 0, 0, 0) == ExactSqrt.ZERO
    assert wigner3j(1, 1, 2, 1, 1, 1) == ExactSqrt.ZERO
    with pytest.raises(ValueError):
        wigner3j(-1, 1, 2, 0, 0, 0)
