"""Linear entropy of a free hydrogenic eigenstate.

S_lin = 1 - (product / V) where product = I_ang * I_rad factorizes the
momentum-space purity integral.  The angular factor I_ang = int |Y|^4 dOmega
is a sum of positive Wigner 3-j terms; the radial factor I_rad = int k^2 F^4
dk comes from a Gauss-Chebyshev rule, exact for its polynomial integrand.
Reported for completeness only: the linear entropy carries no operational
meaning as an entanglement quantifier for these continuous states (it tends
to 1 for every eigenstate as V -> infinity).

radial_sum imports numpy and hydrogenic when it runs, and angular_sum needs
neither, so the package can import linear_entropy, the function, without
loading numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .states import QuantumNumbers, _check_positive


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
    """I_ang = int |Y^m_l|^4 dOmega, as the sum of positive 3-j terms

        (2l+1)^2/(4 pi) sum_L (2L+1) w_m(L) w_0(L),  w_m(L) = (l l L; m m -2m)^2,

    over even L = 2|m| .. 2l, the sum that oracle.angular_purity_exact takes
    in exact rationals.  At j1 = j2 and m1 = m2 the middle coefficient of
    the Schulten-Gordon recurrence in j3 vanishes (J. Math. Phys. 16, 1961
    (1975)), which leaves the two-term ratio

        w_m(L+2)/w_m(L) = ((2l+1)^2 - (L+1)^2)((L+1)^2 - 4m^2)
                          / (((2l+1)^2 - (L+2)^2)((L+2)^2 - 4m^2)).

    Each chain starts from 1 at L = 2|m| and is normalised by the sum rule
    sum_L (2L+1) w_m(L) = 1.  Each ratio of exact ints is rounded once; no
    factorial or |Y|^2 is formed.  Raises ValueError unless |m| <= l.
    """
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    top, m = (2 * l + 1) ** 2, abs(m)

    def chain(m: int) -> list[float]:
        """w_m(L)/w_m(2m) for L = 2m, 2m+2, .., 2l."""
        w, mm = [1.0], 4 * m * m
        for j in range(2 * m + 1, 2 * l, 2):  # j = L + 1
            k = j + 1
            w.append(w[-1] * ((top - j * j) * (j * j - mm) / ((top - k * k) * (k * k - mm))))
        return w

    # fsum rounds each sum once, with the same bits on every Python version.
    w_m, w_0 = chain(m), chain(0)
    weights = range(4 * m + 1, 4 * l + 2, 4)  # 2L+1
    cross = math.fsum(g * a * b for g, a, b in zip(weights, w_m, w_0[m:]))
    norm_m = math.fsum(g * a for g, a in zip(weights, w_m))
    norm_0 = math.fsum(g * b for g, b in zip(range(1, 4 * l + 2, 4), w_0))
    return top * cross / (norm_m * norm_0) / (4.0 * math.pi)


def radial_sum(n: int, l: int, a0: float = 1.0) -> float:
    """I_rad = int_0^inf k^2 F_nl(k)^4 dk in units a0^3.

    Under x = (u-1)/(u+1), u = (n k)^2, the integrand k^2 F^4 dk becomes
    sqrt(1-x^2) times a polynomial of degree 4n+1 in x, so the N = 2n+1 node
    Gauss-Chebyshev rule of the second kind is exact up to rounding.  Its
    weights are all positive, so nothing cancels.

    I_rad is exactly c a0^3, so the sum runs at a0 = 1 and is scaled once:
    at an a0 far from 1, F^4 and k^3 on their own would over- or underflow.
    Raises OverflowError naming (n, l) where F_nl overflows on the nodes
    (radial_momentum's error, from n = 3128), and where c a0^3 is not finite
    or falls below the smallest normal float.
    """
    import numpy as np

    from .hydrogenic import radial_momentum

    if not (0 <= l < n):
        raise ValueError(f"require 0 <= l < n, got n={n}, l={l}")
    _check_positive("a0", a0)
    nodes = 2 * n + 1
    theta = np.arange(1, nodes + 1) * (math.pi / (nodes + 1))
    x, s = np.cos(theta), np.sin(theta)
    k = np.sqrt((1.0 + x) / (1.0 - x)) / n
    f = radial_momentum(QuantumNumbers(n, l), 1.0, k)
    # k^2 F^4 dk/dx / sqrt(1-x^2), with dk/dx = k/(1-x^2) and sqrt(1-x^2) = s.
    poly = k ** 3 * f ** 4 / s ** 3
    i_rad = math.pi / (nodes + 1) * float(np.dot(s * s, poly)) * a0 * a0 * a0
    if not (sys.float_info.min <= i_rad < math.inf):
        raise OverflowError(f"radial purity is out of float range at n={n}, l={l}, a0={a0:g}")
    return i_rad


def linear_entropy(qn: QuantumNumbers, a0: float = 1.0) -> LinearEntropyResult:
    """Angular and radial purity integrals and their product for (n, l, m)."""
    i_rad = radial_sum(qn.n, qn.l, a0)
    i_ang = angular_sum(qn.l, qn.m)
    return LinearEntropyResult(qn=qn, i_ang=i_ang, i_rad=i_rad, product=i_ang * i_rad)
