"""Entanglement spread for free (translationally invariant) hydrogenic states.

A translationally invariant pure state is diagonalized by the Fourier
transform, so its continuous Schmidt spectrum lives in the local momentum
basis.  The spread of that spectrum depends on n only:

    delta_k = (2 pi)^{-3/2} / (n a0),    delta_p = hbar * delta_k.

The (2 pi)^{-3/2} factor is a Fourier-normalisation choice; it is stored on
the result so values can be reported with or without it.  The result is a
namedtuple, so importing this module loads no dataclasses.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .states import QuantumNumbers, SystemParams

CONVENTION_FACTOR = (2.0 * math.pi) ** -1.5


class SchmidtSpread(namedtuple("SchmidtSpread", "qn delta_k delta_p convention_factor",
                               defaults=(CONVENTION_FACTOR,))):
    """The spreads delta_k and delta_p of qn, with the factor folded into both."""

    __slots__ = ()

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
    return SchmidtSpread(qn, delta_k, params.hbar * delta_k)

