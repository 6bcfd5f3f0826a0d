import math

import numpy as np
import pytest

from hydrolens.hydrogenic import (
    QuantumNumbers,
    SystemParams,
    full_state_density,
    gaussian_com_density,
    position_density,
    radial_momentum,
    radial_position,
)
from hydrolens.oracle import (
    bessel_transform_radial,
    integrate_momentum,
    integrate_semi_infinite,
)

STATES_N4 = [QuantumNumbers(n, l, 0) for n in range(1, 5) for l in range(n)]


def test_quantum_numbers_validation():
    with pytest.raises(ValueError):
        QuantumNumbers(0, 0, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(1, 1, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(2, 1, 2)
    qn = QuantumNumbers(3, 2, -2)
    assert (qn.n, qn.l, qn.m) == (3, 2, -2)


def test_system_params():
    p = SystemParams.from_coupling(alpha=2.0, mu=0.5, hbar=1.0)
    assert math.isclose(p.a0, 1.0)
    with pytest.raises(ValueError):
        SystemParams(a0=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("a0", "alpha", "mu", "hbar", "b"):
            with pytest.raises(ValueError):
                SystemParams(**{"a0": 1.0, field: bad})
    # a0 = hbar^2 / (mu alpha) overflows, or underflows to zero.
    for alpha, mu in ((1e-300, 1e-300), (1e300, 1e300)):
        with pytest.raises(ValueError):
            SystemParams.from_coupling(alpha=alpha, mu=mu)
    with pytest.raises(ValueError):
        SystemParams(a0=1.0).a0_over_b
    assert math.isclose(SystemParams(a0=2.0, b=4.0).a0_over_b, 0.5)


def test_ground_state_at_origin():
    # R_10(0) = 2 a0^{-3/2}
    assert math.isclose(radial_position(QuantumNumbers(1, 0, 0), 1.0, 0.0), 2.0)
    assert math.isclose(radial_position(QuantumNumbers(1, 0, 0), 2.0, 0.0),
                        2.0 * 2.0 ** -1.5)


def test_radial_position_normalization():
    for qn in STATES_N4:
        val, _ = integrate_semi_infinite(
            lambda r: r * r * radial_position(qn, 1.0, r) ** 2)
        assert math.isclose(val, 1.0, rel_tol=1e-10), qn


def test_radial_position_node_count():
    for qn in STATES_N4:
        r = np.linspace(1e-6, 60.0 * qn.n, 20000)
        vals = radial_position(qn, 1.0, r)
        nodes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        assert nodes == qn.n - qn.l - 1, qn


def test_radial_position_rejects_negative_r():
    with pytest.raises(ValueError):
        radial_position(QuantumNumbers(1, 0, 0), 1.0, -0.1)


def test_momentum_ground_state_value():
    # F_10 at a0 k = 1 is sqrt(2/pi) a0^{3/2}
    assert math.isclose(radial_momentum(QuantumNumbers(1, 0, 0), 1.0, 1.0),
                        math.sqrt(2.0 / math.pi), rel_tol=1e-14)


def test_momentum_normalization():
    for qn in STATES_N4:
        val, _ = integrate_momentum(
            lambda k: k * k * radial_momentum(qn, 1.0, k) ** 2, qn.n, 1.0)
        assert math.isclose(val, 1.0, rel_tol=1e-10), qn


def test_momentum_normalization_past_factorial_overflow():
    # (n+l)! = 171! does not fit a float; the prefactor must not need it.
    qn = QuantumNumbers(86, 85, 0)
    val, _ = integrate_momentum(
        lambda k: k * k * radial_momentum(qn, 1.0, k) ** 2, qn.n, 1.0)
    assert math.isclose(val, 1.0, rel_tol=1e-8)


def test_momentum_scaling_in_a0():
    # F carries a0^{3/2} against the dimensionless combination a0 k.
    qn = QuantumNumbers(3, 1, 0)
    a0 = 2.5
    for k in (0.2, 0.7, 1.3):
        assert math.isclose(radial_momentum(qn, a0, k),
                            a0 ** 1.5 * radial_momentum(qn, 1.0, a0 * k), rel_tol=1e-13)


def test_momentum_matches_bessel_transform_magnitude():
    # The momentum profile equals the spherical Bessel transform of R_nl up
    # to a k-independent phase, so magnitudes must agree.
    cases = [
        (QuantumNumbers(1, 0, 0), 1.0),
        (QuantumNumbers(2, 1, 0), 0.5),
        (QuantumNumbers(3, 2, 0), 0.8),
        (QuantumNumbers(4, 1, 0), 0.3),
    ]
    for qn, k in cases:
        direct = abs(radial_momentum(qn, 1.0, k))
        oracle = abs(bessel_transform_radial(qn, 1.0, k))
        assert math.isclose(direct, oracle, rel_tol=1e-6), qn


def test_gaussian_com_density_normalized():
    b = 1.7
    val, _ = integrate_semi_infinite(
        lambda R: 4 * math.pi * R * R * gaussian_com_density(b, (0.0, 0.0, R)))
    assert math.isclose(val, 1.0, rel_tol=1e-10)
    with pytest.raises(ValueError):
        gaussian_com_density(0.0, (0.0, 0.0, 0.0))


def test_position_density_factorizes():
    qn = QuantumNumbers(2, 1, 0)
    params = SystemParams(a0=1.0, b=2.0)
    rvec, Rvec = (0.3, 0.1, 1.2), (0.5, -0.2, 0.4)
    full = full_state_density(qn, params, rvec, Rvec)
    assert math.isclose(
        full, position_density(qn, 1.0, rvec) * gaussian_com_density(2.0, Rvec))
    with pytest.raises(ValueError):
        full_state_density(qn, SystemParams(a0=1.0), rvec, Rvec)
