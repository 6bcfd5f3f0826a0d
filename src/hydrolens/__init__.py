"""Entanglement witnesses for hydrogen-like two-body quantum systems.

Importing the package loads no numpy: every public name but radial_momentum
and radial_position comes from a module that imports numpy only inside the
functions that work on arrays.  Those two are resolved on first access
(PEP 562), which imports hydrogenic and numpy.
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
# Imported eagerly, not through __getattr__: importing the submodule
# hydrolens.linear_entropy would otherwise bind the module to this name.
from .linear_entropy import LinearEntropyResult, linear_entropy
from .moments import relative_moments
from .states import QuantumNumbers, SystemParams

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
    "relative_moments",
    "schmidt_spread",
]

__version__ = "1.0.0"


def __getattr__(name: str):
    if name in ("radial_momentum", "radial_position"):
        from . import hydrogenic
        return getattr(hydrogenic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
