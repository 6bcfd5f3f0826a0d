"""Entanglement witnesses for hydrogen-like two-body quantum systems."""

from .free_schmidt import SchmidtSpread, schmidt_spread, reduced_mass_comparison
from .gaussian_ppt import (
    DetectionMap,
    PPTVerdict,
    blind_band_edges,
    detection_map,
    ppt_closed_form,
    ppt_numeric,
)
from .hydrogenic import QuantumNumbers, SystemParams, radial_momentum, radial_position
from .linear_entropy import LinearEntropyResult, linear_entropy
from .moments import relative_moments

__all__ = [
    "DetectionMap",
    "LinearEntropyResult",
    "PPTVerdict",
    "QuantumNumbers",
    "SchmidtSpread",
    "SystemParams",
    "blind_band_edges",
    "detection_map",
    "linear_entropy",
    "ppt_closed_form",
    "ppt_numeric",
    "radial_momentum",
    "radial_position",
    "reduced_mass_comparison",
    "relative_moments",
    "schmidt_spread",
]

__version__ = "1.0.0"
