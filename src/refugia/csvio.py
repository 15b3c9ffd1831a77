"""CSV artifact writers: fixed column order, 17-significant-digit floats."""

from __future__ import annotations

from itertools import chain

import numpy as np

from .continuation import Branch
from .geometry import DomainGeometry
from .operators import split


def _write_table(path, header: str, row: str, n_rows: int, values) -> None:
    """The header line, then n_rows lines of the %-template row, filled by one %-operation."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write((row + "\n") * n_rows % tuple(values))


def write_state_raster(path, geom: DomainGeometry, x: np.ndarray) -> None:
    """One row per cell of the flat state x = [u; v]: i, j, region, u, v (v is
    0 inside the refuge). A wrong length raises RegionMismatch."""
    u, v1 = split(x, geom)
    i, j = np.divmod(np.arange(geom.n_omega), geom.grid.ny)
    region = np.where(geom.omega1_flat, "omega1", "refuge")
    v = np.zeros(geom.n_omega)
    v[geom.omega1_flat] = v1
    columns = (i.tolist(), j.tolist(), region.tolist(), u.tolist(), v.tolist())
    _write_table(path, "i,j,region,u,v", "%d,%d,%s,%.17g,%.17g", geom.n_omega,
                 chain.from_iterable(zip(*columns)))


def write_branch_csv(path, branch: Branch) -> None:
    values = chain.from_iterable(
        (branch.label.value, idx, p.mu, p.amplitude, p.s, p.gamma, p.flag.value,
         p.residual_norm, p.eigen_residual, p.complex_pair, p.corrector_iters)
        for idx, p in enumerate(branch.points))
    _write_table(path, "label,index,mu,amplitude,s,gamma,flag,residual_norm,eigen_residual,"
                 "complex_pair,corrector_iters",
                 "%s,%d,%.17g,%.17g,%.17g,%.17g,%s,%.17g,%.17g,%d,%d", len(branch.points), values)


def write_timeseries(path, history: np.ndarray) -> None:
    """One row per history row: t, u_inf, v_inf, dudt_inf, dvdt_inf."""
    _write_table(path, "t,u_inf,v_inf,dudt_inf,dvdt_inf", "%.17g,%.17g,%.17g,%.17g,%.17g",
                 len(history), history.ravel().tolist())


def write_audit_csv(path, audit) -> None:
    values = chain.from_iterable((r.mu, r.gamma, "pass" if r.passed else "fail")
                                 for r in audit.rows)
    _write_table(path, "mu,gamma,verdict", "%.17g,%.17g,%s", len(audit.rows), values)
