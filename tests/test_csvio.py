import numpy as np

from refugia.csvio import _f, write_state_raster, write_timeseries
from refugia.fields import Region, ScalarField, SystemState
from refugia.geometry import GridSpec, RefugeShape, build_geometry


def test_state_raster_bytes_match_per_cell_format(tmp_path):
    # the manifest hashes every artifact, so the raster text must not change:
    # one row per cell in (i, j) order, floats as f"{x:.17g}"
    geom = build_geometry(GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2))
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 2.0, geom.n_omega) * 10.0 ** rng.integers(-12, 12, geom.n_omega)
    u[:3] = (0.0, 1.0, 1e-300)
    v = rng.uniform(0.0, 1.0, geom.n_omega1)
    state = SystemState(ScalarField(u, Region.OMEGA), ScalarField(v, Region.OMEGA1))
    path = tmp_path / "state.csv"
    write_state_raster(path, geom, state)

    v_grid = geom.to_grid(state.v)
    u_grid = geom.to_grid(state.u)
    lines = ["i,j,region,u,v"]
    for i in range(geom.grid.nx):
        for j in range(geom.grid.ny):
            region = "omega1" if geom.omega1_mask[i, j] else "refuge"
            lines.append(f"{i},{j},{region},{u_grid[i, j]:.17g},{v_grid[i, j]:.17g}")
    assert not geom.omega1_mask.all()  # both region labels occur
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_timeseries_bytes_match_per_value_format(tmp_path):
    # the manifest hashes every artifact: one %-operation must give the text
    # of formatting each value through _f
    rng = np.random.default_rng(3)
    history = rng.uniform(0.0, 2.0, (40, 5)) * 10.0 ** rng.integers(-300, 300, (40, 5))
    history[:, 0] = 0.1 * np.arange(40)
    history[0, 1:] = (0.0, 1.0, 1e-300, 0.30000000000000004)
    path = tmp_path / "timeseries.csv"
    write_timeseries(path, history)

    lines = ["t,u_inf,v_inf,dudt_inf,dvdt_inf"]
    lines += [",".join(_f(x) for x in row) for row in history]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
