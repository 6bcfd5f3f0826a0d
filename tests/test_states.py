"""The contracts of the value types: validated tuples with fixed messages."""

import math
import re
import warnings

import numpy as np
import pytest

from hydrolens.free_schmidt import schmidt_spread
from hydrolens.gaussian_ppt import (
    CACHED_STATES,
    _state,
    detection_map,
    ppt_closed_form,
    ppt_numeric,
)
from hydrolens.hydrogenic import radial_momentum, radial_position
from hydrolens.linear_entropy import linear_entropy
from hydrolens.moments import relative_moments
from hydrolens.oracle import bessel_transform_radial, integrate_momentum
from hydrolens.states import QuantumNumbers


@pytest.mark.parametrize("args, message", [
    ((True, 0), "quantum numbers must be integers, got n=True"),
    ((2, 1, False), "quantum numbers must be integers, got m=False"),
    ((2.0, 1), "quantum numbers must be integers, got n=2.0"),
    ((3, 0.5), "quantum numbers must be integers, got l=0.5"),
    ((np.float64(2.0), 1), f"quantum numbers must be integers, got n={np.float64(2.0)!r}"),
    ((0, 0), "principal quantum number must be >= 1, got n=0"),
    ((2, 2), "require 0 <= l <= n-1, got n=2, l=2"),
    ((2, -1), "require 0 <= l <= n-1, got n=2, l=-1"),
    ((3, 1, -2), "require |m| <= l, got l=1, m=-2"),
])
def test_quantum_numbers_messages(args, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        QuantumNumbers(*args)


def test_quantum_numbers_are_validated_tuples():
    qn = QuantumNumbers(np.int64(5), l=np.int16(3), m=np.int8(-2))
    assert all(type(v) is int for v in qn)
    assert qn == (5, 3, -2) and hash(qn) == hash((5, 3, -2))
    n, l, m = qn
    assert (n, l, m) == (qn.n, qn.l, qn.m) == (5, 3, -2)
    assert QuantumNumbers(2, 1) == (2, 1, 0)
    assert sorted([QuantumNumbers(3, 1), QuantumNumbers(2, 1, 1)]) == [(2, 1, 1), (3, 1, 0)]
    assert repr(qn) == "QuantumNumbers(n=5, l=3, m=-2)"
    # _replace and _make validate as the constructor does.
    assert qn._replace(m=3) == (5, 3, 3)
    with pytest.raises(ValueError, match=re.escape("require |m| <= l, got l=3, m=4")):
        qn._replace(m=4)
    with pytest.raises(ValueError, match="must be integers"):
        QuantumNumbers._make((2, 1.0, 0))


def test_fresh_equal_states_share_one_cache_entry():
    first, second = QuantumNumbers(97, 41, -7), QuantumNumbers(97, 41, -7)
    assert first is not second
    entry = _state(first)
    size = _state.cache_info().currsize
    assert _state(second) is entry
    assert _state.cache_info().currsize == size
    assert entry[0] == relative_moments(first)
    # A plain tuple is no validated state: one that no QuantumNumbers equals
    # misses the cache and is refused.
    with pytest.raises(AttributeError):
        _state((2, 5, 0))


def test_per_state_caches_stay_bounded():
    states = [QuantumNumbers(n, l, m) for n in range(1, 25) for l in range(n)
              for m in range(-l, l + 1)]
    assert len(states) > CACHED_STATES
    for qn in states:
        _state(qn)
    info = _state.cache_info()
    assert info.maxsize == CACHED_STATES and info.currsize <= info.maxsize


_QN = QuantumNumbers(2, 1, 0)
# Every function that takes a0 or hbar, through the one check they pass.
_CALLS = {
    "schmidt_spread": ("a0", lambda v: schmidt_spread(_QN, v)),
    "schmidt_spread_hbar": ("hbar", lambda v: schmidt_spread(_QN, 1.0, v)),
    "linear_entropy": ("a0", lambda v: linear_entropy(_QN, v)),
    "radial_position": ("a0", lambda v: radial_position(_QN, v, 0.5)),
    "radial_momentum": ("a0", lambda v: radial_momentum(_QN, v, 0.5)),
    "integrate_momentum": ("a0", lambda v: integrate_momentum(lambda k: np.exp(-k), 2, v)),
    "bessel_transform_radial": ("a0", lambda v: bessel_transform_radial(_QN, v, 0.7)),
}
_VALUES = {"float": 1.5, "int": 3, "float64": np.float64(0.75), "float32": np.float32(1.5),
           "float32_tiny": np.float32(1e-30), "array_0d": np.array(2.0), "int_huge": 10**400,
           "zero": 0, "negative": -1.0, "float32_zero": np.float32(0.0),
           "array_0d_inf": np.array(np.inf)}


def _fields(result):
    """The float fields of a result, a float or a tuple with the state aside,
    as (type, hex) pairs."""
    return [(type(x), x.hex()) for x in (result if isinstance(result, tuple) else (result,))
            if not isinstance(x, QuantumNumbers)]


@pytest.mark.parametrize("name, call", _CALLS.values(), ids=_CALLS)
@pytest.mark.parametrize("value", _VALUES.values(), ids=_VALUES)
def test_a0_and_hbar_compute_as_python_floats(name, call, value):
    # A numpy scalar or 0-d array, or an int, gives what the float call
    # gives, bit for bit and in Python floats, or the ValueError that names
    # the parameter.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            x = float(value)
        except OverflowError:
            x = None
        if x is None or not 0 < x < math.inf:
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
                call(value)
            return
        got = _fields(call(value))
        assert got == _fields(call(x))
    assert all(t is float for t, _ in got)


@pytest.mark.parametrize("name, call", _CALLS.values(), ids=_CALLS)
def test_a0_and_hbar_given_as_text_are_refused(name, call):
    # float() would parse "1.5"; a number is asked for.
    with pytest.raises(TypeError, match=f"^{name} must be a number, got '1.5'$"):
        call("1.5")


def test_fields_cannot_be_assigned():
    qn = QuantumNumbers(2, 1, 1)
    values = [qn, ppt_closed_form(qn, 1.0), ppt_numeric(qn, 1.0),
              schmidt_spread(qn, 1.0), linear_entropy(qn),
              detection_map(qn, (1.0, 2.0), (1.0, 2.0), 2)]
    for value in values:
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1  # no instance dict


def test_verdict_is_a_tuple_of_the_query():
    qn = QuantumNumbers(3, 2, -1)
    verdict = ppt_numeric(qn, 0.05)
    got_qn, ratio, nu = verdict
    assert got_qn is qn and ratio == 0.05 and nu == tuple(sorted(nu)) and len(nu) == 6
    assert verdict.min_nu == nu[0] and verdict.detected == (nu[0] < 1.0)
    assert ppt_closed_form(qn, 0.05) == (qn, 0.05, ppt_closed_form(qn, 0.05).nu)


def test_detection_map_compares_by_identity():
    qn = QuantumNumbers(2, 1, 0)
    first = detection_map(qn, (1.0, 2.0), (1.0, 2.0), 3)
    second = detection_map(qn, (1.0, 2.0), (1.0, 2.0), 3)
    assert first == first and not first != first
    assert first != second and not first == second
    assert len({first, second, first}) == 2
    assert hash(first) != hash(second)
