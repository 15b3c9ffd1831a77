import numpy as np
import pytest

from refugia.continuation import AuditRow, Branch, BranchLabel, BranchPoint, SignRelationAudit
from refugia.csvio import (write_audit_csv, write_branch_csv, write_state_raster,
                           write_timeseries)
from refugia.errors import RegionMismatch
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.spectral import StabilityFlag


def test_state_raster_bytes_match_per_cell_format(tmp_path):
    # the manifest hashes every artifact, so the raster text must not change:
    # one row per cell in (i, j) order, floats as f"{x:.17g}"
    geom = build_geometry(GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2))
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 2.0, geom.n_omega) * 10.0 ** rng.integers(-12, 12, geom.n_omega)
    u[:3] = (0.0, 1.0, 1e-300)
    v = rng.uniform(0.0, 1.0, geom.n_omega1)
    path = tmp_path / "state.csv"
    write_state_raster(path, geom, np.concatenate([u, v]))

    u_grid = u.reshape(geom.grid.nx, geom.grid.ny)
    v_grid = np.zeros_like(u_grid)
    v_grid[geom.omega1_mask] = v
    lines = ["i,j,region,u,v"]
    for i in range(geom.grid.nx):
        for j in range(geom.grid.ny):
            region = "omega1" if geom.omega1_mask[i, j] else "refuge"
            lines.append(f"{i},{j},{region},{u_grid[i, j]:.17g},{v_grid[i, j]:.17g}")
    assert not geom.omega1_mask.all()  # both region labels occur
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_state_raster_rejects_a_wrong_length_predator_field(tmp_path):
    geom = build_geometry(GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2))
    with pytest.raises(RegionMismatch):
        write_state_raster(tmp_path / "state.csv", geom, np.ones(geom.n_unknowns + 1))
    assert not (tmp_path / "state.csv").exists()


def test_timeseries_bytes_match_per_value_format(tmp_path):
    # the manifest hashes every artifact: one %-operation must give the text
    # of formatting each value as f"{x:.17g}"
    rng = np.random.default_rng(3)
    history = rng.uniform(0.0, 2.0, (40, 5)) * 10.0 ** rng.integers(-300, 300, (40, 5))
    history[:, 0] = 0.1 * np.arange(40)
    history[0, 1:] = (0.0, 1.0, 1e-300, 0.30000000000000004)
    path = tmp_path / "timeseries.csv"
    write_timeseries(path, history)

    lines = ["t,u_inf,v_inf,dudt_inf,dvdt_inf"]
    lines += [",".join(f"{x:.17g}" for x in row) for row in history]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_branch_csv_bytes_match_per_value_format(tmp_path):
    # the manifest hashes every artifact: floats as f"{x:.17g}", the
    # complex-pair flag as 0/1 and the corrector count as an integer
    values = [
        (0.75, 0.0, 0.0, -0.0, StabilityFlag.MARGINAL, 1e-300, float("nan"), False, 0),
        (0.30000000000000004, 1e-300, 0.05, -1.5e-7, StabilityFlag.STABLE, 2.5e-13,
         3.3e-11, True, 4),
        (1e12, 123456.789, 1.0 / 3.0, 2.0, StabilityFlag.UNSTABLE, 0.0, -0.0, True, 17),
    ]
    points = [
        BranchPoint(mu, None, s, amp, gamma, flag, res, eig, pair, iters)
        for mu, amp, s, gamma, flag, res, eig, pair, iters in values
    ]
    path = tmp_path / "branch.csv"
    write_branch_csv(path, Branch(BranchLabel.NONTRIVIAL, points))

    lines = ["label,index,mu,amplitude,s,gamma,flag,residual_norm,eigen_residual,"
             "complex_pair,corrector_iters"]
    for idx, (mu, amp, s, gamma, flag, res, eig, pair, iters) in enumerate(values):
        floats = ",".join(f"{x:.17g}" for x in (mu, amp, s, gamma))
        lines.append(f"nontrivial,{idx},{floats},{flag.value},{res:.17g},{eig:.17g},"
                     f"{int(pair)},{iters}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_audit_csv_bytes_match_per_value_format(tmp_path):
    rows = [AuditRow(0.5, -0.0, True), AuditRow(1e-300, float("nan"), False),
            AuditRow(1.3000000000000003, 2.5e-9, True)]
    path = tmp_path / "audit.csv"
    write_audit_csv(path, SignRelationAudit(rows, 2, 1, 0))

    lines = ["mu,gamma,verdict"]
    lines += [f"{r.mu:.17g},{r.gamma:.17g},{'pass' if r.passed else 'fail'}" for r in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
