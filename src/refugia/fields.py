"""Scalar fields on the habitat and the predator subdomain.

Prey lives on the whole habitat (region OMEGA); predators live only outside
the refuge (region OMEGA1) and are identically zero inside it. Field values
are stored as flat vectors in the fixed cell ordering of the geometry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import RegionMismatch


class Region(enum.Enum):
    OMEGA = "omega"
    OMEGA1 = "omega1"


@dataclass
class ScalarField:
    """One value per cell of a region, flat, in row-major cell order."""

    values: np.ndarray
    region: Region

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()


@dataclass
class SystemState:
    """Prey field on OMEGA paired with a predator field on OMEGA1."""

    u: ScalarField
    v: ScalarField

    def __post_init__(self):
        if self.u.region is not Region.OMEGA or self.v.region is not Region.OMEGA1:
            raise RegionMismatch("SystemState expects u on OMEGA and v on OMEGA1")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.u.values, self.v.values])

    @staticmethod
    def from_vector(x: np.ndarray, n_omega: int) -> "SystemState":
        return SystemState(
            ScalarField(x[:n_omega], Region.OMEGA),
            ScalarField(x[n_omega:], Region.OMEGA1),
        )


def constant_state(geom, u_value: float, v_value: float) -> SystemState:
    """State with uniform prey over OMEGA and uniform predators over OMEGA1."""
    return SystemState(
        ScalarField(np.full(geom.n_omega, float(u_value)), Region.OMEGA),
        ScalarField(np.full(geom.n_omega1, float(v_value)), Region.OMEGA1),
    )
