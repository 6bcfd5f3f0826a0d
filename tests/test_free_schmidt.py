import math

import pytest

from hydrolens.free_schmidt import (
    CONVENTION_FACTOR,
    reduced_mass_comparison,
    schmidt_spread,
)
from hydrolens.hydrogenic import QuantumNumbers, SystemParams


def test_convention_factor():
    assert math.isclose(CONVENTION_FACTOR, (2 * math.pi) ** -1.5)


def test_spread_formula_identity():
    # delta_p * (2 pi)^{3/2} * n * a0 / hbar = 1 exactly.
    for n in range(1, 11):
        for a0 in (0.5, 1.0, 3.0):
            s = schmidt_spread(QuantumNumbers(n, 0, 0), SystemParams(a0=a0, hbar=2.0))
            assert abs(s.delta_p * (2 * math.pi) ** 1.5 * n * a0 / 2.0 - 1.0) <= 4.5e-16


def test_spread_independent_of_l_and_m():
    params = SystemParams(a0=1.0)
    for n in range(1, 7):
        ref = schmidt_spread(QuantumNumbers(n, 0, 0), params)
        for l in range(n):
            for m in range(-l, l + 1):
                s = schmidt_spread(QuantumNumbers(n, l, m), params)
                assert s.delta_k == ref.delta_k
                assert s.delta_p == ref.delta_p


def test_spread_scales_inverse_n():
    params = SystemParams(a0=1.0)
    s1 = schmidt_spread(QuantumNumbers(1, 0, 0), params)
    s2 = schmidt_spread(QuantumNumbers(2, 0, 0), params)
    assert math.isclose(s2.delta_k, s1.delta_k / 2.0)


def test_bare_second_moment():
    # Without the Fourier convention factor the spread squared is 1/(n a0)^2.
    s = schmidt_spread(QuantumNumbers(3, 1, 0), SystemParams(a0=2.0))
    assert math.isclose(s.bare_second_moment, 1.0 / 36.0, rel_tol=1e-14)


def test_always_entangled():
    for n in (1, 5, 10):
        assert schmidt_spread(QuantumNumbers(n, 0, 0), SystemParams(a0=1.0)).entangled


def test_reduced_mass_comparison():
    exact, heavy = reduced_mass_comparison(m1=1.0, m2=1836.0, alpha=1.0, n=1)
    # Exact reduced mass is slightly below the light mass, so its a0 is
    # slightly larger and the spread slightly smaller.
    assert exact.delta_p < heavy.delta_p
    assert math.isclose(exact.delta_p / heavy.delta_p, 1836.0 / 1837.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        reduced_mass_comparison(m1=-1.0, m2=1.0, alpha=1.0, n=1)
