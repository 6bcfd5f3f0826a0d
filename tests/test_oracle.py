import math
from fractions import Fraction

import pytest

from hydrolens.hydrogenic import QuantumNumbers
from hydrolens.linear_entropy import angular_sum
from hydrolens.oracle import (
    QuadratureError,
    QuadratureSpec,
    angular_purity_exact,
    bessel_transform_radial,
    integrate,
    integrate_momentum,
    integrate_semi_infinite,
    integrate_theta,
    momentum_compactification,
    racah_3j,
)
from hydrolens.specfun import gegenbauer


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(lambda x: x, rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(lambda x: x, max_subdivisions=0)


def test_finite_polynomial_exact():
    val, err = integrate(QuadratureSpec(lambda x: x * x, 0.0, 3.0))
    assert math.isclose(val, 9.0, rel_tol=1e-14)
    assert err <= 1e-10


def test_semi_infinite_exponential():
    val, err = integrate_semi_infinite(lambda x: math.exp(-x))
    assert math.isclose(val, 1.0, rel_tol=1e-11)
    assert abs(val - 1.0) <= 10.0 * max(err, 1e-15)


def test_error_estimates_are_honest():
    # On integrals with known values the true error stays within 10x the
    # reported estimate (plus double-precision floor).
    cases = [
        (QuadratureSpec(lambda x: math.exp(-x * x), -8.0, 8.0), math.sqrt(math.pi)),
        (QuadratureSpec(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0), math.pi / 4.0),
        (QuadratureSpec(lambda x: math.sqrt(abs(x)), -1.0, 1.0), 4.0 / 3.0),
        (QuadratureSpec(lambda x: math.sin(40.0 * x), 0.0, 1.0),
         (1.0 - math.cos(40.0)) / 40.0),
    ]
    for spec, truth in cases:
        val, err = integrate(spec)
        assert abs(val - truth) <= 10.0 * err + 1e-13 * abs(truth)


def test_non_convergence_raises_with_best_estimate():
    spec = QuadratureSpec(lambda x: math.sqrt(abs(x)), -1.0, 1.0,
                          rel_tol=1e-15, max_subdivisions=3)
    with pytest.raises(QuadratureError) as exc_info:
        integrate(spec)
    assert math.isclose(exc_info.value.best, 4.0 / 3.0, rel_tol=1e-3)


def test_compactification_maps():
    n, a0 = 2, 1.5
    k_of_x, jac = momentum_compactification(n, a0)
    assert math.isclose(k_of_x(0.0), 1.0 / (n * a0))
    # x(k) round trip
    for x in (-0.9, -0.3, 0.2, 0.8):
        k = k_of_x(x)
        u = (n * a0 * k) ** 2
        assert math.isclose((u - 1.0) / (u + 1.0), x, rel_tol=1e-12)
        assert math.isclose(jac(x), k / (1.0 - x * x), rel_tol=1e-14)


def test_gegenbauer_orthogonality_closed_form():
    # int_{-1}^{1} (1-x^2)^{alpha - 1/2} [C^alpha_n]^2 dx
    #   = pi 2^{1-2 alpha} Gamma(n + 2 alpha) / (n! (n + alpha) Gamma(alpha)^2)
    for alpha, n in [(2.0, 1), (1.0, 3), (3.0, 2)]:
        val, _ = integrate(QuadratureSpec(
            lambda x: (1 - x * x) ** (alpha - 0.5) * gegenbauer(alpha, n, x) ** 2,
            -1.0, 1.0))
        expect = (math.pi * 2.0 ** (1 - 2 * alpha) * math.gamma(n + 2 * alpha)
                  / (math.factorial(n) * (n + alpha) * math.gamma(alpha) ** 2))
        assert math.isclose(val, expect, rel_tol=1e-10), (alpha, n)
        # Different degrees are orthogonal.
        cross, _ = integrate(QuadratureSpec(
            lambda x: (1 - x * x) ** (alpha - 0.5)
            * gegenbauer(alpha, n, x) * gegenbauer(alpha, n + 2, x), -1.0, 1.0))
        assert abs(cross) <= 1e-10 * expect


def test_momentum_domain_gegenbauer_weighted():
    # The compactified momentum integral reproduces the same orthogonality
    # closed form when the integrand is assembled from the weight explicitly.
    n_qn, a0, alpha, deg = 3, 1.0, 2.0, 1

    def f(k):
        u = (n_qn * a0 * k) ** 2
        x = (u - 1.0) / (u + 1.0)
        # convert dk back to dx through the jacobian: multiply by (1-x^2)/k
        return (1 - x * x) ** (alpha - 0.5) * gegenbauer(alpha, deg, x) ** 2 \
            * (1.0 - x * x) / k

    val, _ = integrate_momentum(f, n_qn, a0)
    expect = (math.pi * 2.0 ** (1 - 2 * alpha) * math.gamma(deg + 2 * alpha)
              / (math.factorial(deg) * (deg + alpha) * math.gamma(alpha) ** 2))
    assert math.isclose(val, expect, rel_tol=1e-10)


def test_theta_quadrature():
    assert math.isclose(integrate_theta(math.sin), 2.0, rel_tol=1e-12)


def test_bessel_transform_ground_state():
    qn = QuantumNumbers(1, 0, 0)
    assert math.isclose(bessel_transform_radial(qn, 1.0, 1.0),
                        math.sqrt(2.0 / math.pi), rel_tol=1e-10)


def test_bessel_transform_zero_wavevector():
    assert bessel_transform_radial(QuantumNumbers(2, 1, 0), 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        bessel_transform_radial(QuantumNumbers(1, 0, 0), 1.0, -1.0)


def test_racah_trivial_and_selection():
    assert racah_3j(0, 0, 0, 0, 0, 0).square == 1
    assert racah_3j(0, 0, 0, 0, 0, 0).sign == 1
    assert racah_3j(1, 1, 5, 0, 0, 0).sign == 0
    with pytest.raises(ValueError):
        racah_3j(21, 21, 21, 0, 0, 0)


def test_racah_agrees_with_library_path():
    # The Gauss-Legendre angular purity against the exact rational 3-j sum,
    # for every (l, m) with l <= 10 (l' = 2l reaches the oracle's bound 20).
    for l in range(0, 11):
        for m in range(-l, l + 1):
            exact = float(angular_purity_exact(l, m)) / (4 * math.pi)
            assert math.isclose(angular_sum(l, m), exact, rel_tol=1e-13), (l, m)


def test_racah_nonzero_example_matches():
    # Stretched case: (j1 j2 J; m1 m2 -M)^2 with J = j1 + j2 is
    # (2j1)! (2j2)! (J+M)! (J-M)! / ((2J+1)! (j1+m1)! (j1-m1)! (j2+m2)! (j2-m2)!).
    value = racah_3j(2, 2, 4, 1, 1, -2)
    assert value.square == Fraction(4, 63)
    assert value.sign == 1
