"""Entanglement spread for free (translationally invariant) hydrogenic states.

A translationally invariant pure state is diagonalized by the Fourier
transform, so its continuous Schmidt spectrum lives in the local momentum
basis.  The spread of that spectrum depends on n only:

    delta_k = (2 pi)^{-3/2} / (n a0),    delta_p = hbar * delta_k.

The (2 pi)^{-3/2} factor, CONVENTION_FACTOR, is a Fourier-normalisation
choice folded into both spreads.  The system enters through a0 and hbar,
two floats.  Every bound eigenstate has delta_k > 0, so every one is
entangled; where a spread is not a positive normal float, which would print
0 or inf, schmidt_spread raises OverflowError.  The result is a namedtuple,
so importing this module loads no dataclasses.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .states import QuantumNumbers, _check_positive

CONVENTION_FACTOR = (2.0 * math.pi) ** -1.5
_TINY = sys.float_info.min  # the smallest positive normal float


class SchmidtSpread(namedtuple("SchmidtSpread", "qn delta_k delta_p")):
    """The spreads delta_k and delta_p of qn, with CONVENTION_FACTOR folded
    into both."""

    __slots__ = ()


def schmidt_spread(qn: QuantumNumbers, a0: float, hbar: float = 1.0) -> SchmidtSpread:
    """Standard deviation of the Schmidt spectrum, in wavevector and momentum.

    Raises ValueError naming a0 or hbar where it is not finite and positive,
    and OverflowError naming n, a0 and hbar where either spread is not a
    positive normal float: 0 or subnormal where n a0 is huge, inf where a0
    is tiny or hbar huge.
    """
    a0, hbar = _check_positive("a0", a0), _check_positive("hbar", hbar)
    try:
        delta_k = CONVENTION_FACTOR / (qn.n * a0)
    except OverflowError:  # n too large for a float: delta_k underflows
        delta_k = 0.0
    delta_p = hbar * delta_k
    if not (_TINY <= delta_k < math.inf and _TINY <= delta_p < math.inf):
        raise OverflowError(f"Schmidt spread is not a normal float at n={qn.n}, "
                            f"a0={a0:g}, hbar={hbar:g}: delta_k={delta_k:g}, "
                            f"delta_p={delta_p:g}")
    return SchmidtSpread(qn, delta_k, delta_p)
