import math
import re

import pytest

from hydrolens.free_schmidt import CONVENTION_FACTOR, schmidt_spread
from hydrolens.states import QuantumNumbers


def test_convention_factor():
    assert math.isclose(CONVENTION_FACTOR, (2 * math.pi) ** -1.5)


def test_spread_formula_identity():
    # delta_p * (2 pi)^{3/2} * n * a0 / hbar = 1 exactly.
    for n in range(1, 11):
        for a0 in (0.5, 1.0, 3.0):
            s = schmidt_spread(QuantumNumbers(n, 0, 0), a0, hbar=2.0)
            assert abs(s.delta_p * (2 * math.pi) ** 1.5 * n * a0 / 2.0 - 1.0) <= 4.5e-16


def test_spread_independent_of_l_and_m():
    for n in range(1, 7):
        ref = schmidt_spread(QuantumNumbers(n, 0, 0), 1.0)
        for l in range(n):
            for m in range(-l, l + 1):
                s = schmidt_spread(QuantumNumbers(n, l, m), 1.0)
                assert s.delta_k == ref.delta_k
                assert s.delta_p == ref.delta_p


def test_spread_scales_inverse_n():
    s1 = schmidt_spread(QuantumNumbers(1, 0, 0), 1.0)
    s2 = schmidt_spread(QuantumNumbers(2, 0, 0), 1.0)
    assert math.isclose(s2.delta_k, s1.delta_k / 2.0)


@pytest.mark.parametrize("n, a0, hbar", [
    (10 ** 300, 1e300, 1.0),  # delta_k underflows to 0
    (1, 1e307, 1.0),  # delta_k is subnormal
    (10 ** 400, 1.0, 1.0),  # n a0 is too large for a float
    (1, 1e-300, 1e10),  # delta_p overflows to inf
], ids=("zero", "subnormal", "huge-n", "inf"))
def test_spread_outside_the_normal_floats_raises(n, a0, hbar):
    with pytest.raises(OverflowError, match=re.escape(f"at n={n}, a0={a0:g}, hbar={hbar:g}")):
        schmidt_spread(QuantumNumbers(n, 0, 0), a0, hbar)


def test_spread_at_the_edge_of_the_normal_floats():
    s = schmidt_spread(QuantumNumbers(1, 0, 0), 1e306)
    assert s.delta_k == s.delta_p == CONVENTION_FACTOR / 1e306 > 2.2250738585072014e-308


@pytest.mark.parametrize("name", ["a0", "hbar"])
@pytest.mark.parametrize("bad, shown", [
    (0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
])
def test_spread_rejects_a_parameter_that_is_not_finite_and_positive(name, bad, shown):
    kwargs = {"a0": 1.0, "hbar": 1.0, name: bad}
    with pytest.raises(ValueError,
                       match=re.escape(f"{name} must be finite and positive, got {shown}") + "$"):
        schmidt_spread(QuantumNumbers(2, 1, 0), **kwargs)
