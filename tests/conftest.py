from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import settings

from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import ModelParams

CENTER_RECT = RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125))

# property tests: the same few examples on every run, no timing deadline and
# no example database on disk
settings.register_profile(
    "refugia", derandomize=True, deadline=None, max_examples=20, database=None
)
settings.load_profile("refugia")


@pytest.fixture(scope="session")
def geom16():
    return build_geometry(GridSpec(16, 16), CENTER_RECT)


@pytest.fixture(scope="session")
def geom32():
    return build_geometry(GridSpec(32, 32), CENTER_RECT)


@pytest.fixture(scope="session")
def geom64():
    return build_geometry(GridSpec(64, 64), CENTER_RECT)


@pytest.fixture(scope="session")
def params_a():
    """The standard parameter set: threshold at mu = 1."""
    return ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)


@dataclass
class ScipyCounters:
    """What the package asked of scipy.sparse.linalg during one test."""

    splu_shapes: list = field(default_factory=list)  # matrix shape of each splu call
    splu_calls: list = field(default_factory=list)  # (matrix, positional, keyword) per call
    cg_solves: list = field(default_factory=list)  # (x0 passed, iterations) per cg call
    eigs_calls: int = 0

    @property
    def cg_iters(self) -> int:
        return sum(iters for _, iters in self.cg_solves)


@pytest.fixture
def scipy_counters(monkeypatch):
    """Count splu, cg and eigs calls made through spla.<name>, and record each
    splu call's matrix and arguments and, per cg call, whether it was given a
    starting guess x0 and how many iterations it took.

    The package calls these through the module attributes, so replacing them
    here sees every call; cg iterations are counted by a chained callback."""
    counts = ScipyCounters()
    splu, cg, eigs = spla.splu, spla.cg, spla.eigs

    def counted_splu(A, *args, **kwargs):
        counts.splu_shapes.append(A.shape)
        counts.splu_calls.append((A, args, kwargs))
        return splu(A, *args, **kwargs)

    def counted_cg(*args, callback=None, **kwargs):
        iters = 0

        def count(xk):
            nonlocal iters
            iters += 1
            if callback is not None:
                callback(xk)

        result = cg(*args, callback=count, **kwargs)
        counts.cg_solves.append((kwargs.get("x0") is not None, iters))
        return result

    def counted_eigs(*args, **kwargs):
        counts.eigs_calls += 1
        return eigs(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted_splu)
    monkeypatch.setattr(spla, "cg", counted_cg)
    monkeypatch.setattr(spla, "eigs", counted_eigs)
    return counts


def smooth_positive(grid, rng, base=1.0, wobble=0.1, floor=0.05):
    """Smooth strictly positive profile from a few low Neumann modes."""
    X, Y = grid.cell_centers()
    f = base * np.ones_like(X)
    for kx in range(3):
        for ky in range(3):
            if kx == ky == 0:
                continue
            f = f + wobble * rng.normal() * np.cos(np.pi * kx * X / grid.lx) * np.cos(
                np.pi * ky * Y / grid.ly
            )
    return np.maximum(f, floor)
