"""Hydrogenic eigenfunctions in position and momentum space.

Conventions match the radial normalisation int_0^inf r^2 R_nl^2 dr = 1 and
int_0^inf k^2 F_nl^2 dk = 1.  Note that the momentum profile F_nl is the
real-valued standard form; it agrees with the literal (unitary) Fourier
transform of psi_nlm up to a k-independent phase of modulus one, so only
magnitudes should be compared against a numerical transform.

radial_position and radial_momentum take r or k as a float or a numpy array
and run one recurrence in degree on it, with prefactors from lgamma.  No
(n+l)! is formed, so Rydberg states need no separate path.  Both reject an
r or k that is negative or not finite, and an a0 that is not finite and
positive.

Internally everything is a pure function of (quantum numbers, a0); dimensionful
parameters enter only through SystemParams at the API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _float_or_array, gegenbauer


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
    case alpha and mu are optional metadata.  The wavepacket width b is only
    needed for localized analyses.
    """

    a0: float
    alpha: float | None = None
    mu: float | None = None
    hbar: float = 1.0
    b: float | None = None

    def __post_init__(self):
        for name in ("a0", "alpha", "mu", "hbar", "b"):
            value = getattr(self, name)
            if value is not None:
                _check_positive(name, value)

    @classmethod
    def from_coupling(cls, alpha: float, mu: float, hbar: float = 1.0,
                      b: float | None = None) -> "SystemParams":
        if alpha <= 0 or mu <= 0:
            raise ValueError("alpha and mu must be positive")
        # Divided in turn: the product mu * alpha can underflow to zero.
        return cls(a0=hbar * hbar / mu / alpha, alpha=alpha, mu=mu, hbar=hbar, b=b)

    @property
    def a0_over_b(self) -> float:
        if self.b is None:
            raise ValueError("wavepacket width b is not set")
        return self.a0 / self.b


def _radial_argument(a0: float, x, name: str):
    """Check a0 and a radial argument x; return x as a Python float for a 0-d
    x and as a float array otherwise."""
    _check_positive("a0", a0)
    x = _float_or_array(x)
    if isinstance(x, float):
        ok = 0 <= x < math.inf
    else:
        ok = bool(np.all((0 <= x) & (x < math.inf)))
    if not ok:
        raise ValueError(f"{name} must be finite and >= 0")
    return x


def radial_position(qn: QuantumNumbers, a0: float, r):
    """Radial wavefunction R_nl(r), units length^{-3/2}.

    With rho = 2r/(n a0) and d = n - l - 1,

        R_nl = e^T L^{(2l+1)}_d(rho),   T = log N + l log rho - rho/2,
        N^2  = (2/(n a0))^3 d! / (2n (n+l)!),

    in the modern Laguerre convention.  The three-term recurrence in degree
    runs on M_k = c^{k+1} L_k with c = e^{T/(d+1)}, so M_d is R_nl itself and
    neither e^T nor L_d is formed on its own; values stay finite to n = 1000.
    r may be a float or a numpy array; a float r gives a float.  Has exactly
    d nodes on (0, inf).
    """
    r = _radial_argument(a0, r, "radial coordinate")
    n, l = qn.n, qn.l
    d, p = n - l - 1, 2 * l + 1
    rho = 2.0 * r / (n * a0)
    t = 0.5 * (3.0 * (math.log(2.0 / n) - math.log(a0)) + math.lgamma(d + 1)
               - math.lgamma(n + l + 1) - math.log(2.0 * n)) - 0.5 * rho
    # l log rho is -inf at rho = 0, where R_nl = 0 for l > 0; c is then 0.
    if isinstance(rho, float):
        if l:
            t += l * math.log(rho) if rho else -math.inf
        c = math.exp(t / (d + 1))
    else:
        if l:
            with np.errstate(divide="ignore"):
                t = t + l * np.log(rho)
        c = np.exp(t / (d + 1))
    m_prev, m = 0.0, c
    for k in range(d):
        m, m_prev = c * ((2 * k + 1 + p - rho) * m - c * (k + p) * m_prev) / (k + 1), m
    return m


def radial_momentum(qn: QuantumNumbers, a0: float, k):
    """Momentum-space radial profile F_nl(k), units length^{3/2}.

    With s = n a0 k and x = (s^2 - 1)/(s^2 + 1),

        F_nl = N (s/(s^2+1))^l (s^2+1)^{-2} C^{(l+1)}_{n-l-1}(x),
        N    = sqrt(2/pi (n-l-1)!/(n+l)!) n^2 2^{2l+2} l! a0^{3/2},

    with N built from lgamma and the base s/(s^2+1) at most 1/2; values stay
    finite to n = 700.  k may be a float or a numpy array; a float k gives a
    float.
    """
    k = _radial_argument(a0, k, "wavevector magnitude")
    n, l = qn.n, qn.l
    pref = math.exp(
        0.5 * (math.log(2.0 / math.pi) + math.lgamma(n - l) - math.lgamma(n + l + 1))
        + 2.0 * math.log(n) + (2 * l + 2) * math.log(2.0) + math.lgamma(l + 1)
        + 1.5 * math.log(a0))
    s = n * a0 * k
    u1 = s * s + 1.0
    return pref * (s / u1) ** l / (u1 * u1) * gegenbauer(l + 1, n - l - 1, 1.0 - 2.0 / u1)
