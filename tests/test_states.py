"""The contracts of the value types: validated tuples with fixed messages."""

import re

import numpy as np
import pytest

from hydrolens.free_schmidt import schmidt_spread
from hydrolens.gaussian_ppt import _split_axes, detection_map, ppt_closed_form, ppt_numeric
from hydrolens.linear_entropy import linear_entropy
from hydrolens.moments import relative_moments
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
    moments, axes = relative_moments(first), _split_axes(first)
    size = relative_moments.cache_info().currsize
    assert relative_moments(second) is moments and _split_axes(second) is axes
    assert relative_moments.cache_info().currsize == size
    # A plain tuple is no validated state: one that no QuantumNumbers equals
    # misses the cache and is refused.
    with pytest.raises(AttributeError):
        relative_moments((2, 5, 0))


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
