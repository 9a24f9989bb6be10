"""Frame and sequence-space machinery on finite metric-measure spaces.

The package builds finite graph models carrying a distance, a measure and a
symmetric positive-semidefinite operator, constructs multiscale nets, frames
and their duals through spectral calculus, and measures the constants in the
localization, almost-diagonality and decomposition inequalities that govern
them.
"""

from mmframes.space import (
    ModelSpace,
    DoublingProfile,
    Net,
    NetHierarchy,
    build_model,
    measure_doubling,
    build_maximal_net,
    build_partition,
)
from mmframes.calculus import SpectralData, Cutoff, eigendecompose, make_cutoff

__all__ = [
    "ModelSpace",
    "DoublingProfile",
    "Net",
    "NetHierarchy",
    "build_model",
    "measure_doubling",
    "build_maximal_net",
    "build_partition",
    "SpectralData",
    "Cutoff",
    "eigendecompose",
    "make_cutoff",
]
