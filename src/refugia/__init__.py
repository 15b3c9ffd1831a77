"""Numerical laboratory for a predator-prey reaction-diffusion model with a
prey refuge: steady states, linearized stability, and the transcritical
bifurcation between the predator-free and coexistence branches."""

__version__ = "0.1.0"

from .fields import Region, ScalarField, SystemState, constant_state
from .geometry import (
    DomainGeometry,
    GridSpec,
    RefugeShape,
    build_geometry,
)
from .operators import ModelParams, assemble_jacobian, residual_steady

__all__ = [
    "Region",
    "ScalarField",
    "SystemState",
    "constant_state",
    "DomainGeometry",
    "GridSpec",
    "RefugeShape",
    "build_geometry",
    "ModelParams",
    "assemble_jacobian",
    "residual_steady",
    "__version__",
]
