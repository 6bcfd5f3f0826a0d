"""The state and parameter types every layer shares: QuantumNumbers and
SystemParams, with the positivity check they and the radial functions apply.

Plain Python, no numpy, so that the point queries (ppt, schmidt) and
importing the package never load numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class QuantumNumbers:
    """Validated (n, l, m) triple indexing a hydrogenic bound state."""

    n: int
    l: int
    m: int = 0

    def __post_init__(self):
        # The type test first: the isinstance test of an ABC costs microseconds,
        # several times the rest of the construction.
        if not type(self.n) is type(self.l) is type(self.m) is int:
            for name in ("n", "l", "m"):
                value = getattr(self, name)
                # bool is an Integral too, but True for n = 1 is a mistake, not a state.
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"quantum numbers must be integers, got {name}={value!r}")
                # Python ints, so exact arithmetic on them cannot wrap as numpy's can.
                object.__setattr__(self, name, int(value))
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got n={self.n}")
        if not (0 <= self.l <= self.n - 1):
            raise ValueError(f"require 0 <= l <= n-1, got n={self.n}, l={self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"require |m| <= l, got l={self.l}, m={self.m}")


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters: coupling alpha, reduced mass mu, hbar, and the
    derived reduced Bohr radius a0 = hbar^2 / (mu * alpha).

    Either construct from (alpha, mu, hbar) or supply a0 directly, in which
    case alpha and mu are optional metadata.
    """

    a0: float
    alpha: float | None = None
    mu: float | None = None
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("a0", "alpha", "mu", "hbar"):
            value = getattr(self, name)
            if value is not None:
                _check_positive(name, value)

    @classmethod
    def from_coupling(cls, alpha: float, mu: float, hbar: float = 1.0) -> "SystemParams":
        if alpha <= 0 or mu <= 0:
            raise ValueError("alpha and mu must be positive")
        # Divided in turn: the product mu * alpha can underflow to zero.
        return cls(a0=hbar * hbar / mu / alpha, alpha=alpha, mu=mu, hbar=hbar)
