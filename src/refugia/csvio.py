"""CSV artifact writers: fixed column order, 17-significant-digit floats."""

from __future__ import annotations

import numpy as np

from .continuation import Branch
from .fields import SystemState
from .geometry import DomainGeometry


def _f(x: float) -> str:
    return f"{float(x):.17g}"


def write_state_raster(path, geom: DomainGeometry, state: SystemState) -> None:
    """One row per cell: i, j, region, u, v (v is 0 inside the refuge)."""
    nx, ny = geom.grid.nx, geom.grid.ny
    u = state.u.values.reshape(nx, ny)
    v = np.zeros((nx, ny))
    v[geom.omega1_mask] = state.v.values
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,region,u,v\n")
        for i in range(nx):
            for j in range(ny):
                region = "omega1" if geom.omega1_mask[i, j] else "refuge"
                fh.write(f"{i},{j},{region},{_f(u[i, j])},{_f(v[i, j])}\n")


def write_branch_csv(path, branch: Branch) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "label,index,mu,amplitude,s,gamma,flag,residual_norm,eigen_residual,complex_pair\n"
        )
        for idx, p in enumerate(branch.points):
            fh.write(
                f"{branch.label.value},{idx},{_f(p.mu)},{_f(p.amplitude)},"
                f"{_f(p.s)},{_f(p.gamma)},{p.flag.value},{_f(p.residual_norm)},"
                f"{_f(p.eigen_residual)},{int(p.complex_pair)}\n"
            )


def write_timeseries(path, history: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,u_inf,v_inf,dudt_inf,dvdt_inf\n")
        for row in history:
            fh.write(",".join(_f(x) for x in row) + "\n")


def write_audit_csv(path, audit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mu,gamma,verdict\n")
        for row in audit.rows:
            fh.write(f"{_f(row.mu)},{_f(row.gamma)},{'pass' if row.passed else 'fail'}\n")
