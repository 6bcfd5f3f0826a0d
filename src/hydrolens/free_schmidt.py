"""Entanglement spread for free (translationally invariant) hydrogenic states.

A translationally invariant pure state is diagonalized by the Fourier
transform, so its continuous Schmidt spectrum lives in the local momentum
basis.  The spread of that spectrum depends on n only:

    delta_k = (2 pi)^{-3/2} / (n a0),    delta_p = hbar * delta_k.

The (2 pi)^{-3/2} factor, CONVENTION_FACTOR, is a Fourier-normalisation
choice folded into both spreads.  Every bound eigenstate has delta_k > 0, so
every one is entangled.  The result is a namedtuple, so importing this module
loads no dataclasses.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .states import QuantumNumbers, SystemParams

CONVENTION_FACTOR = (2.0 * math.pi) ** -1.5


class SchmidtSpread(namedtuple("SchmidtSpread", "qn delta_k delta_p")):
    """The spreads delta_k and delta_p of qn, with CONVENTION_FACTOR folded
    into both."""

    __slots__ = ()


def schmidt_spread(qn: QuantumNumbers, params: SystemParams) -> SchmidtSpread:
    """Standard deviation of the Schmidt spectrum, in wavevector and momentum."""
    delta_k = CONVENTION_FACTOR / (qn.n * params.a0)
    return SchmidtSpread(qn, delta_k, params.hbar * delta_k)
