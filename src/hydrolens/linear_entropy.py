"""Linear entropy of a free hydrogenic eigenstate.

S_lin = 1 - (product / V) where product = I_ang * I_rad factorizes the
momentum-space purity integral.  The angular factor I_ang = int |Y|^4 dOmega
comes from a Clenshaw-Curtis rule and the radial factor I_rad = int k^2 F^4 dk
from a Gauss-Chebyshev rule; each rule is exact for its polynomial integrand.
Reported for completeness only: the linear entropy carries no operational
meaning as an entanglement quantifier for these continuous states (it tends
to 1 for every eigenstate as V -> infinity).

The sums import numpy, hydrogenic and specfun when they run, so the package
can import linear_entropy, the function, without loading numpy.
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
    """I_ang = int |Y^m_l|^4 dOmega = 2 pi int_{-1}^{1} |Y^m_l|^4 dx, x = cos(theta).

    |Y^m_l|^4 is an even polynomial of degree 4l in x, so the Clenshaw-Curtis
    rule on the nodes x_k = cos(k pi/N), k = 0..N, N = 4l+2, is exact up to
    rounding.  Its weights are all positive, so nothing cancels.  They come
    from one inverse real FFT of the moments int T_2j dx = 2/(1-4j^2)
    (Waldvogel, BIT Numer. Math. 46, 195 (2006)), with no eigensolve.  The
    integrand is even, so only the nodes x_k >= 0 are evaluated, each
    k < N/2 weighted for itself and its mirror N-k.
    oracle.angular_purity_exact gives the same integral as an exact
    Wigner-3j sum.  Raises ValueError unless |m| <= l.
    """
    if abs(m) > l:
        raise ValueError(f"require |m| <= l, got l={l}, m={m}")
    import numpy as np

    from .specfun import spherical_harmonic_sq

    half = 2 * l + 1  # N/2
    j = np.arange(half + 1)
    # irfft gives (2/N) sum'' over the moments 2/(1-4j^2) times cos(2 pi j k/N)
    # at k = 0..N/2: the weight of node k, or of the end pair k = 0, N.  Each
    # 0 < k < N/2 is doubled for its mirror N-k.
    w = np.fft.irfft(2.0 / (1.0 - 4.0 * j * j), 2 * half)[:half + 1]
    w[1:half] *= 2.0
    y2 = spherical_harmonic_sq(l, m, j * (math.pi / (2 * half)))
    return 2.0 * math.pi * float(np.dot(w, y2 * y2))


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
