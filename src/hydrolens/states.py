"""The state type every layer shares, QuantumNumbers, and the checks that
every float parameter (a0, hbar, a point query's a0/b) goes through.

A system enters only through its reduced Bohr radius a0, one float, so there
is no parameter type.  QuantumNumbers is a validated tuple: a namedtuple
subclass whose __new__ checks and normalises the fields, so a value is
immutable, hashes and compares in C, and costs one tuple allocation.  It
unpacks as n, l, m and compares, orders and hashes equal to the plain tuple
(n, l, m); assigning to a field raises AttributeError.  _replace and _make
validate as the constructor does.

Plain Python, no numpy, so that the point queries (ppt, schmidt) and
importing the package never load numpy.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple


def _as_float(name: str, value) -> float:
    """value, one number, as a Python float, so that a numpy scalar or 0-d
    array, an int, a Fraction or a Decimal computes as the float does.  A
    str is a TypeError; an array that is not 0-d, a value beyond the float
    range and anything else float() refuses are a ValueError naming it."""
    if isinstance(value, (str, bytes)):  # float() would parse them
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        if getattr(value, "shape", ()) == ():
            return float(value)
    except OverflowError:  # an int or a Fraction beyond the float range
        raise ValueError(f"{name} must be finite and positive, got a value beyond the "
                         f"float range") from None
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be one real number, got {value!r}")


def _check_positive(name: str, value) -> float:
    """value as a Python float (_as_float); ValueError naming the parameter
    unless it is finite and positive."""
    value = value if type(value) is float else _as_float(name, value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def _integer(name: str, value) -> int:
    # bool is an Integral too, but True for n = 1 is a mistake, not a state.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"quantum numbers must be integers, got {name}={value!r}")
    # Python ints, so exact arithmetic on them cannot wrap as numpy's can.
    return int(value)


class QuantumNumbers(namedtuple("QuantumNumbers", "n l m")):
    """Validated (n, l, m) triple indexing a hydrogenic bound state."""

    __slots__ = ()

    def __new__(cls, n: int, l: int, m: int = 0):
        # The type test first: the isinstance test of an ABC costs microseconds,
        # several times the rest of the construction.
        if not type(n) is type(l) is type(m) is int:
            n, l, m = _integer("n", n), _integer("l", l), _integer("m", m)
        if n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got n={n}")
        if not (0 <= l <= n - 1):
            raise ValueError(f"require 0 <= l <= n-1, got n={n}, l={l}")
        if abs(m) > l:
            raise ValueError(f"require |m| <= l, got l={l}, m={m}")
        return tuple.__new__(cls, (n, l, m))

    @classmethod
    def _make(cls, iterable) -> "QuantumNumbers":
        return cls(*iterable)
