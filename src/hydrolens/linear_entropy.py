"""Linear entropy of a free hydrogenic eigenstate.

S_lin = 1 - (product / V) where product = I_ang * I_rad factorizes the
momentum-space purity integral.  The angular factor I_ang is an exact
Wigner-3j sum; the radial factor I_rad = int k^2 F^4 dk comes from a
Gauss-Chebyshev rule that is exact for its polynomial integrand.  Reported
for completeness only: the linear entropy carries no operational meaning as
an entanglement quantifier for these continuous states (it tends to 1 for
every eigenstate as V -> infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hydrogenic import QuantumNumbers, radial_momentum
from .specfun import wigner3j


@dataclass(frozen=True)
class LinearEntropyResult:
    qn: QuantumNumbers
    i_ang: float          # dimensionless
    i_rad: float          # units a0^3
    product: float        # units a0^3

    def s_lin(self, volume: float | None = None) -> float:
        """1 - product/V; exactly 1 in the V -> infinity limit."""
        if volume is None or math.isinf(volume):
            return 1.0
        if volume <= 0:
            raise ValueError(f"volume must be positive, got {volume}")
        return 1.0 - self.product / volume


def angular_sum(l: int, m: int) -> float:
    """I_ang = sum_{l'} (2l+1)^2 (2l'+1)/(4 pi) 3j(l,l,l'; m,m,-2m)^2
    3j(l,l,l'; 0,0,0)^2, with l' running over 0..2l (selection rules kill the
    rest, including every odd l' in the second symbol)."""
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    total = Fraction(0)
    for lp in range(0, 2 * l + 1):
        w_m = wigner3j(l, l, lp, m, m, -2 * m).squared()
        if w_m == 0:
            continue
        w_0 = wigner3j(l, l, lp, 0, 0, 0).squared()
        if w_0 == 0:
            continue
        total += (2 * l + 1) ** 2 * (2 * lp + 1) * w_m * w_0
    return float(total) / (4.0 * math.pi)


def radial_sum(n: int, l: int, a0: float = 1.0) -> float:
    """I_rad = int_0^inf k^2 F_nl(k)^4 dk in units a0^3.

    Under x = (u-1)/(u+1), u = (n a0 k)^2, the integrand k^2 F^4 dk becomes
    sqrt(1-x^2) times a polynomial of degree 4n+1 in x, so the N = 2n+1 node
    Gauss-Chebyshev rule of the second kind is exact up to rounding.  Its
    weights are all positive, so nothing cancels.
    """
    if not (0 <= l < n):
        raise ValueError(f"require 0 <= l < n, got n={n}, l={l}")
    nodes = 2 * n + 1
    theta = np.arange(1, nodes + 1) * (math.pi / (nodes + 1))
    x, s = np.cos(theta), np.sin(theta)
    k = np.sqrt((1.0 + x) / (1.0 - x)) / (n * a0)
    f = radial_momentum(QuantumNumbers(n, l), a0, k)
    # k^2 F^4 dk/dx / sqrt(1-x^2), with dk/dx = k/(1-x^2) and sqrt(1-x^2) = s.
    poly = k ** 3 * f ** 4 / s ** 3
    return math.pi / (nodes + 1) * float(np.dot(s * s, poly))


def linear_entropy(qn: QuantumNumbers, a0: float = 1.0) -> LinearEntropyResult:
    """Angular and radial purity integrals and their product for (n, l, m)."""
    i_ang = angular_sum(qn.l, qn.m)
    i_rad = radial_sum(qn.n, qn.l, a0)
    return LinearEntropyResult(qn=qn, i_ang=i_ang, i_rad=i_rad, product=i_ang * i_rad)
