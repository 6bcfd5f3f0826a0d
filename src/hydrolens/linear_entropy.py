"""Linear entropy of a free hydrogenic eigenstate.

S_lin = 1 - (product / V) where product = I_ang * I_rad factorizes the
momentum-space purity integral.  The angular factor I_ang = int |Y|^4 dOmega
comes from a Gauss-Legendre rule and the radial factor I_rad = int k^2 F^4 dk
from a Gauss-Chebyshev rule; each rule is exact for its polynomial integrand.
Reported for completeness only: the linear entropy carries no operational
meaning as an entanglement quantifier for these continuous states (it tends
to 1 for every eigenstate as V -> infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hydrogenic import QuantumNumbers, _check_positive, radial_momentum
from .specfun import spherical_harmonic_sq


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
        if not volume > 0:
            raise ValueError(f"volume must be positive, got {volume}")
        return 1.0 - self.product / volume


def angular_sum(l: int, m: int) -> float:
    """I_ang = int |Y^m_l|^4 dOmega = 2 pi int_{-1}^{1} |Y^m_l|^4 dx, x = cos(theta).

    |Y^m_l|^4 is a polynomial of degree 4l in x, so the N = 2l+1 node
    Gauss-Legendre rule is exact up to rounding.  Its weights are all
    positive, so nothing cancels.  oracle.angular_purity_exact gives the same
    integral as an exact Wigner-3j sum.
    """
    x, w = np.polynomial.legendre.leggauss(2 * l + 1)
    y2 = spherical_harmonic_sq(l, m, np.arccos(x))
    return 2.0 * math.pi * float(np.dot(w, y2 * y2))


def radial_sum(n: int, l: int, a0: float = 1.0) -> float:
    """I_rad = int_0^inf k^2 F_nl(k)^4 dk in units a0^3.

    Under x = (u-1)/(u+1), u = (n a0 k)^2, the integrand k^2 F^4 dk becomes
    sqrt(1-x^2) times a polynomial of degree 4n+1 in x, so the N = 2n+1 node
    Gauss-Chebyshev rule of the second kind is exact up to rounding.  Its
    weights are all positive, so nothing cancels.
    """
    if not (0 <= l < n):
        raise ValueError(f"require 0 <= l < n, got n={n}, l={l}")
    _check_positive("a0", a0)
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
