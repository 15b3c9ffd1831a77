from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import settings

from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import ModelParams
from refugia.steady import solve_kernel_function

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


def semitrivial_leading_analytic(params: ModelParams) -> float:
    """Exact leading eigenvalue of the linearization at the predator-free state.

    The linearization is block triangular there: the prey block lam*(lap - I)
    tops out at -lam (constant mode), the predator block at
    c*lam/(1 + m*lam) - mu (constant Neumann mode, grid-exact).
    """
    return max(-params.lam, params.c * params.lam / (1.0 + params.m * params.lam) - params.mu)


def branch_slope_analytic(params: ModelParams, geom) -> float:
    """The coexistence branch's slope d mu/d amplitude at mu*,
    s1 = -c*mean_OMEGA1(alpha)/(1 + m*lam)^2, with alpha the kernel function
    (Crandall & Rabinowitz, J. Funct. Anal. 8, 1971: left null vector (0, 1)
    on the predator cells, right null vector (-alpha, 1))."""
    alpha = solve_kernel_function(params, geom).alpha
    return -params.c * alpha[geom.omega1_flat].mean() / (1.0 + params.m * params.lam) ** 2


def no_refuge_branch_oracle(params: ModelParams, mu: float, grid):
    """The coexistence branch without a refuge in closed form at mu: its
    constant state (u, v) and the eigenvalue of largest real part of its
    Jacobian.

    With b(x) = b the branch's states are the kinetic equilibria
    u = mu/(c - m*mu), v = (lam - u)(1 + m*u)/b, and the Jacobian splits over
    the grid's Neumann cosine modes: the mode with Laplacian eigenvalue
    kappa = -(4/hx^2) sin^2(pi j/2nx) - (4/hy^2) sin^2(pi k/2ny) gives
    [[u*kappa + a, -b*u/d1], [c*v/d1^2, kappa + d]], with d1 = 1 + m*u,
    a = lam - 2u - b*v/d1^2 and d = c*u/d1 - mu.
    """
    u = mu / (params.c - params.m * mu)
    d1 = 1.0 + params.m * u
    v = (params.lam - u) * d1 / params.b
    sx = np.sin(np.pi * np.arange(grid.nx) / (2 * grid.nx)) ** 2
    sy = np.sin(np.pi * np.arange(grid.ny) / (2 * grid.ny)) ** 2
    kappa = (-4.0 / grid.hx**2 * sx[:, None] - 4.0 / grid.hy**2 * sy[None, :]).ravel()
    modes = np.empty((kappa.size, 2, 2))
    modes[:, 0, 0] = u * kappa + params.lam - 2.0 * u - params.b * v / d1**2
    modes[:, 0, 1] = -params.b * u / d1
    modes[:, 1, 0] = params.c * v / d1**2
    modes[:, 1, 1] = kappa + params.c * u / d1 - mu
    values = np.linalg.eigvals(modes).ravel()
    return u, v, values[np.argmax(values.real)]
