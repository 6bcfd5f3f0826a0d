"""Hydrogenic eigenfunctions in position and momentum space.

Conventions match the radial normalisation int_0^inf r^2 R_nl^2 dr = 1 and
int_0^inf k^2 F_nl^2 dk = 1.  Note that the momentum profile F_nl is the
real-valued standard form; it agrees with the literal (unitary) Fourier
transform of psi_nlm up to a k-independent phase of modulus one, so only
magnitudes should be compared against a numerical transform.

Internally everything is a pure function of (quantum numbers, a0); dimensionful
parameters enter only through SystemParams at the API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import factorial, gegenbauer, laguerre_assoc, spherical_harmonic_sq


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
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

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


def radial_position(qn: QuantumNumbers, a0: float, r):
    """Radial wavefunction R_nl(r), units length^{-3/2}.

    Has exactly n - l - 1 nodes on (0, inf).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radial coordinate must be >= 0")
    n, l = qn.n, qn.l
    rho = 2.0 * r / (n * a0)
    pref = math.sqrt(
        (2.0 / (n * a0)) ** 3
        * factorial(n - l - 1)
        / (2.0 * n * factorial(n + l) ** 3)
    )
    lag = np.vectorize(lambda x: laguerre_assoc(2 * l + 1, n - l - 1, x))(rho)
    out = pref * np.exp(-r / (n * a0)) * rho ** l * lag
    return out if out.ndim else float(out)


def radial_momentum(qn: QuantumNumbers, a0: float, k):
    """Momentum-space radial profile F_nl(k), units length^{3/2}."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("wavevector magnitude must be >= 0")
    n, l = qn.n, qn.l
    u = (n * a0 * k) ** 2
    x = (u - 1.0) / (u + 1.0)
    # Built in log space: (n+l)! overflows a float from n+l = 171 on.
    pref = math.exp(
        0.5 * (math.log(2.0 / math.pi) + math.lgamma(n - l) - math.lgamma(n + l + 1))
        + 2.0 * math.log(n)
        + (2 * l + 2) * math.log(2.0)
        + math.lgamma(l + 1)
    ) * a0 ** 1.5
    geg = np.vectorize(lambda xx: gegenbauer(l + 1, n - l - 1, xx))(x)
    # (n a0 k)^l / (u+1)^(l+2), grouped so that no power overflows: the base
    # n a0 k / (u+1) never exceeds 1/2.
    out = pref * (n * a0 * k / (u + 1.0)) ** l / (u + 1.0) ** 2 * geg
    return out if out.ndim else float(out)


def gaussian_com_density(b: float, Rvec) -> float:
    """|phi(R)|^2 for the normalized 3D Gaussian wavepacket of width b."""
    if b <= 0:
        raise ValueError(f"wavepacket width must be positive, got {b}")
    Rvec = np.asarray(Rvec, dtype=float)
    r2 = float(np.dot(Rvec, Rvec))
    return math.exp(-r2 / (b * b)) / (math.pi ** 1.5 * b ** 3)


def position_density(qn: QuantumNumbers, a0: float, rvec) -> float:
    """|psi_nlm(r)|^2 at a Cartesian relative coordinate (phi-independent)."""
    rvec = np.asarray(rvec, dtype=float)
    r = float(np.linalg.norm(rvec))
    theta = math.acos(rvec[2] / r) if r > 0 else 0.0
    R = radial_position(qn, a0, r)
    return R * R * spherical_harmonic_sq(qn.l, qn.m, theta)


def full_state_density(qn: QuantumNumbers, params: SystemParams, rvec, Rvec) -> float:
    """|Psi(r, R)|^2 = |psi_nlm(r)|^2 |phi(R)|^2 for the localized state."""
    if params.b is None:
        raise ValueError("full_state_density needs a wavepacket width b")
    return position_density(qn, params.a0, rvec) * gaussian_com_density(params.b, Rvec)
