"""CSV artifact writers: fixed column order, 17-significant-digit floats."""

from __future__ import annotations

from itertools import chain

import numpy as np

from .continuation import Branch
from .fields import SystemState
from .geometry import DomainGeometry
from .operators import split


def _f(x: float) -> str:
    return f"{float(x):.17g}"


def write_state_raster(path, geom: DomainGeometry, state: SystemState) -> None:
    """One row per cell: i, j, region, u, v (v is 0 inside the refuge).

    The whole table is formatted by one %-operation over the interleaved
    columns; '%.17g' gives the same text as _f.
    """
    i, j = np.divmod(np.arange(geom.n_omega), geom.grid.ny)
    region = np.where(geom.omega1_flat, "omega1", "refuge")
    u, v1 = split(state.as_vector(), geom)
    v = np.zeros(geom.n_omega)
    v[geom.omega1_flat] = v1
    columns = (i.tolist(), j.tolist(), region.tolist(), u.tolist(), v.tolist())
    cells = chain.from_iterable(zip(*columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,region,u,v\n")
        fh.write("%d,%d,%s,%.17g,%.17g\n" * geom.n_omega % tuple(cells))


def write_branch_csv(path, branch: Branch) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "label,index,mu,amplitude,s,gamma,flag,residual_norm,eigen_residual,complex_pair,"
            "corrector_iters\n"
        )
        for idx, p in enumerate(branch.points):
            fh.write(
                f"{branch.label.value},{idx},{_f(p.mu)},{_f(p.amplitude)},"
                f"{_f(p.s)},{_f(p.gamma)},{p.flag.value},{_f(p.residual_norm)},"
                f"{_f(p.eigen_residual)},{int(p.complex_pair)},{p.corrector_iters}\n"
            )


def write_timeseries(path, history: np.ndarray) -> None:
    """One row per history row (t, u_inf, v_inf, dudt_inf, dvdt_inf), formatted
    by one %-operation as in write_state_raster."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,u_inf,v_inf,dudt_inf,dvdt_inf\n")
        rows = "%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(history)
        fh.write(rows % tuple(history.ravel().tolist()))


def write_audit_csv(path, audit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mu,gamma,verdict\n")
        for row in audit.rows:
            fh.write(f"{_f(row.mu)},{_f(row.gamma)},{'pass' if row.passed else 'fail'}\n")
