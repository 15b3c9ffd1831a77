"""Habitat geometry: uniform cell-centered grid, refuge masks, face tables.

The habitat is the rectangle [0, lx] x [0, ly]. The refuge is a subregion
whose closure must stay strictly inside the habitat; the predator domain is
the complement of the refuge closure. All regions are represented by cell
masks on the grid (staircase boundaries). Fluxes vanish on every face of the
habitat boundary (for prey) and additionally on every face separating the
predator domain from the refuge (for predators), which is realized by simply
omitting those faces from the face tables.

Grid arrays have shape (nx, ny) indexed [i, j] with cell centers at
x = (i + 0.5) * hx, y = (j + 0.5) * hy. Flat cell ordering is the row-major
ravel of that array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateGrid, RefugeTouchesBoundary

#: the refuge shapes RefugeShape (and the run config) accept
REFUGE_KINDS = ("rectangle", "disc", "empty")


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid: nx-by-ny cells over [0, lx] x [0, ly]."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise DegenerateGrid(f"grid must have nx, ny >= 4, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise DegenerateGrid("physical extents must be positive")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """(nx, ny) arrays of cell-center coordinates."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True)
class RefugeShape:
    """Refuge region: an axis-aligned rectangle, a disc, or nothing."""

    kind: str
    center: tuple[float, float] | None = None
    half_width: tuple[float, float] | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in REFUGE_KINDS:
            raise ValueError(f"refuge kind must be one of {REFUGE_KINDS}")
        if self.kind == "rectangle" and (self.center is None or self.half_width is None):
            raise ValueError("rectangle refuge needs center and half_width")
        if self.kind == "disc" and (self.center is None or self.radius is None):
            raise ValueError("disc refuge needs center and radius")
        if self.kind == "rectangle" and (self.half_width[0] <= 0 or self.half_width[1] <= 0):
            raise ValueError("rectangle half widths must be positive")
        if self.kind == "disc" and self.radius <= 0:
            raise ValueError("disc radius must be positive")

    @staticmethod
    def rectangle(center, half_width) -> "RefugeShape":
        return RefugeShape("rectangle", center=tuple(center), half_width=tuple(half_width))

    @staticmethod
    def disc(center, radius) -> "RefugeShape":
        return RefugeShape("disc", center=tuple(center), radius=float(radius))

    @staticmethod
    def empty() -> "RefugeShape":
        return RefugeShape("empty")

    def margin_to_boundary(self, grid: GridSpec) -> float:
        """Smallest distance from the refuge closure to the habitat boundary."""
        if self.kind == "empty":
            return float("inf")
        cx, cy = self.center
        wx, wy = self.half_width if self.kind == "rectangle" else (self.radius, self.radius)
        return min(cx - wx, grid.lx - cx - wx, cy - wy, grid.ly - cy - wy)

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Membership of points in the refuge closure."""
        if self.kind == "empty":
            return np.zeros_like(x, dtype=bool)
        cx, cy = self.center
        if self.kind == "rectangle":
            wx, wy = self.half_width
            return (np.abs(x - cx) <= wx) & (np.abs(y - cy) <= wy)
        return (x - cx) ** 2 + (y - cy) ** 2 <= self.radius**2


@dataclass(eq=False)
class DomainGeometry:
    """Immutable-after-build description of the discretized habitat.

    Geometries compare and hash by identity, so per-geometry caches (such as
    operators.cell_graph's) can key on them.

    Face tables list the interior faces across which diffusion acts; the
    zero-flux condition on a region's boundary is equivalent to that face
    simply not appearing in the region's table (ghost-reflection values
    cancel).
    """

    grid: GridSpec
    refuge: RefugeShape
    omega1_mask: np.ndarray  # (nx, ny) bool
    area_omega1: float
    #: flat bool over cells; the v-vector lists the OMEGA1 cells in flat order
    omega1_flat: np.ndarray = field(repr=False)
    #: face table (a, b, w) of OMEGA: interior faces in flat cell indices
    faces_u: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    #: face table (a, b, w) of OMEGA1: faces internal to it in v-vector indices
    faces_v: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    @property
    def n_omega(self) -> int:
        return self.grid.n_cells

    @cached_property
    def n_omega1(self) -> int:
        return int(self.omega1_mask.sum())

    @property
    def n_unknowns(self) -> int:
        return self.n_omega + self.n_omega1

    @cached_property
    def lap_omega(self) -> sp.csr_matrix:
        """Zero-flux 5-point Laplacian over OMEGA (symmetric, rows sum to 0)."""
        return _face_matrix(self.n_omega, self.faces_u, 1.0)

    @cached_property
    def lap_omega1(self) -> sp.csr_matrix:
        """Zero-flux 5-point Laplacian over OMEGA1 (refuge faces excluded)."""
        return _face_matrix(self.n_omega1, self.faces_v, 1.0)


def _face_table(index: np.ndarray, inside: np.ndarray, grid: GridSpec):
    """Faces between neighbouring cells that both lie inside a region.

    Returns (a, b, w): the region indices of the two cells (a before b along
    the axis) and the face weight w = 1/h^2 of the face's axis; x-faces come
    first.
    """
    ok_x = inside[:-1, :] & inside[1:, :]
    ok_y = inside[:, :-1] & inside[:, 1:]
    a = np.concatenate([index[:-1, :][ok_x], index[:, :-1][ok_y]])
    b = np.concatenate([index[1:, :][ok_x], index[:, 1:][ok_y]])
    w = np.concatenate(
        [np.full(int(ok_x.sum()), 1.0 / grid.hx**2), np.full(int(ok_y.sum()), 1.0 / grid.hy**2)]
    )
    return a, b, w


def _face_matrix(n, table, coef):
    """Assemble a symmetric flux-divergence matrix from a face table.

    A face (a, b) with weight w and coefficient coef (a scalar or one value
    per face) adds w*coef at (a,b) and (b,a) and subtracts it at (a,a) and
    (b,b). With coef = 1 this is the Laplacian; with the face average of u
    it is the frozen-coefficient diffusion operator.
    """
    a, b, w = table
    wc = w * coef
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([b, a, a, b])
    data = np.concatenate([wc, wc, -wc, -wc])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def check_refuge_clearance(grid: GridSpec, refuge: RefugeShape) -> None:
    """Raise RefugeTouchesBoundary when the refuge closure comes within 2h of
    the habitat boundary (h the larger cell spacing), which enforces the
    strict-interior requirement on the discrete level."""
    h = max(grid.hx, grid.hy)
    margin = refuge.margin_to_boundary(grid)
    if margin <= 2.0 * h:
        raise RefugeTouchesBoundary(f"refuge margin {margin:.6g} <= 2h = {2*h:.6g}")


def build_geometry(grid: GridSpec, refuge: RefugeShape) -> DomainGeometry:
    """Mask the refuge, measure the predator domain, and build face tables.

    Raises RefugeTouchesBoundary as check_refuge_clearance does.
    """
    check_refuge_clearance(grid, refuge)

    x, y = grid.cell_centers()
    in_refuge = refuge.contains(x, y)

    omega1 = ~in_refuge
    area = float(omega1.sum()) * grid.hx * grid.hy

    # v-vector index of each OMEGA1 cell: the OMEGA1 cells in flat order
    idx1 = np.full((grid.nx, grid.ny), -1, dtype=np.int64)
    idx1[omega1] = np.arange(int(omega1.sum()))

    idx = np.arange(grid.n_cells).reshape(grid.nx, grid.ny)
    faces_u = _face_table(idx, np.ones_like(omega1), grid)
    faces_v = _face_table(idx1, omega1, grid)

    return DomainGeometry(
        grid=grid,
        refuge=refuge,
        omega1_mask=omega1,
        area_omega1=area,
        omega1_flat=omega1.ravel(),
        faces_u=faces_u,
        faces_v=faces_v,
    )
