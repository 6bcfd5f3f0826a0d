"""Entanglement witnesses for hydrogen-like two-body quantum systems.

Importing the package loads no numpy: each module it imports imports numpy
only inside the functions that need it.
"""

from .free_schmidt import SchmidtSpread, schmidt_spread
from .gaussian_ppt import (
    DetectionMap,
    PPTVerdict,
    blind_band_edges,
    detection_map,
    ppt_closed_form,
    ppt_numeric,
)
from .hydrogenic import radial_momentum, radial_position
from .linear_entropy import LinearEntropyResult, linear_entropy
from .moments import relative_moments
from .states import QuantumNumbers

__all__ = [
    "DetectionMap",
    "LinearEntropyResult",
    "PPTVerdict",
    "QuantumNumbers",
    "SchmidtSpread",
    "blind_band_edges",
    "detection_map",
    "linear_entropy",
    "ppt_closed_form",
    "ppt_numeric",
    "radial_momentum",
    "radial_position",
    "relative_moments",
    "schmidt_spread",
]

__version__ = "1.0.0"
