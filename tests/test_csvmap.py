import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolens.csvmap import _slots


def _texts(values):
    """The text of each slot, without its separator and padding."""
    slots = _slots(values)
    return [row.astype("<u8").tobytes().rstrip(b"\0").decode("ascii") for row in slots]


def _check(values):
    assert _texts(values) == [format(v, ".17g") + "," for v in values]


def _ulps(x, k):
    """The 2k + 1 floats from k ulps below x to k above."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=1,
                max_size=64))
def test_slots_match_format_17g(values):
    _check(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-4, 1e16), min_size=1, max_size=64))
def test_slots_match_format_17g_without_exponent(values):
    # The range that numpy formats, drawn densely.
    _check(values)


@pytest.mark.parametrize("values", [
    # Exact ties at the 17th digit round half to even.
    [1000000000000000.25, 1000000000000000.75, 1125899906842623.75],
    [1.0, 2.0, 123456789.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0],
    # Powers of ten and their neighbours, and the values that round to them.
    [v for j in range(-6, 19) for v in _ulps(float(f"1e{j}"), 2)],
    [v for j in range(-6, 19) for s in ("9.99999999999999999", "9.9999999999999999")
     for v in _ulps(float(f"{s}e{j}"), 2)],
    # Either side of where %g switches to the exponent form, and of 1e16.
    [v for x in (1e-5, 1e-4, 1e16, 1e17) for v in _ulps(x, 8)],
])
def test_slots_edge_cases(values):
    _check(values)


def test_slots_random_bulk():
    rng = np.random.default_rng(29)
    values = np.concatenate([10 ** rng.uniform(-6, 19, 20000),
                             rng.integers(10**15, 2**53 // 4, 2000) + 0.25,
                             rng.integers(1, 0x7FF0000000000000, 2000).view(np.float64)])
    _check(values.tolist())
