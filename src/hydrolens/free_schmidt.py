"""Entanglement spread for free (translationally invariant) hydrogenic states.

A translationally invariant pure state is diagonalized by the Fourier
transform, so its continuous Schmidt spectrum lives in the local momentum
basis.  The spread of that spectrum depends on n only:

    delta_k = (2 pi)^{-3/2} / (n a0),    delta_p = hbar * delta_k.

The (2 pi)^{-3/2} factor is a Fourier-normalisation choice; it is stored on
the result so values can be reported with or without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import QuantumNumbers, SystemParams

CONVENTION_FACTOR = (2.0 * math.pi) ** -1.5


@dataclass(frozen=True)
class SchmidtSpread:
    qn: QuantumNumbers
    delta_k: float
    delta_p: float
    convention_factor: float = CONVENTION_FACTOR

    @property
    def entangled(self) -> bool:
        # Every bound eigenstate has delta_k > 0: always entangled.
        return self.delta_k > 0

    @property
    def bare_second_moment(self) -> float:
        """The convention-free integral value (delta_k / factor)^2 = 1/(n a0)^2."""
        return (self.delta_k / self.convention_factor) ** 2


def schmidt_spread(qn: QuantumNumbers, params: SystemParams) -> SchmidtSpread:
    """Standard deviation of the Schmidt spectrum, in wavevector and momentum."""
    delta_k = CONVENTION_FACTOR / (qn.n * params.a0)
    return SchmidtSpread(qn=qn, delta_k=delta_k, delta_p=params.hbar * delta_k)


def reduced_mass_comparison(m1: float, m2: float, alpha: float, n: int,
                            hbar: float = 1.0) -> tuple[SchmidtSpread, SchmidtSpread]:
    """Momentum spread with the exact reduced mass vs. the heavy-nucleus limit.

    Returns (exact, heavy_limit) where the heavy limit replaces
    mu = m1 m2 / (m1 + m2) by min(m1, m2).
    """
    if m1 <= 0 or m2 <= 0:
        raise ValueError("masses must be positive")
    qn = QuantumNumbers(n=n, l=0, m=0)
    exact = schmidt_spread(
        qn, SystemParams.from_coupling(alpha=alpha, mu=m1 * m2 / (m1 + m2), hbar=hbar))
    heavy = schmidt_spread(
        qn, SystemParams.from_coupling(alpha=alpha, mu=min(m1, m2), hbar=hbar))
    return exact, heavy
