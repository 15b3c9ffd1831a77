import numpy as np
import pytest

from refugia.errors import (
    DegenerateGrid,
    RefugeTouchesBoundary,
    RefugiaError,
    RegionMismatch,
)
from refugia.fields import Region, ScalarField, SystemState, constant_state
from refugia.geometry import (
    GridSpec,
    RefugeShape,
    build_geometry,
)


def test_rectangular_refuge_area_matches_analytic(geom64):
    # grid-aligned rectangle [0.375, 0.625]^2: one cell layer of slack allowed
    perimeter_h = 4 * 0.25 * geom64.grid.hx
    assert abs(geom64.area_omega1 - 0.9375) <= perimeter_h
    # this refuge is grid aligned, so the measure is in fact exact
    assert geom64.area_omega1 == pytest.approx(0.9375, abs=1e-14)


def test_empty_refuge_fills_habitat():
    geom = build_geometry(GridSpec(32, 32), RefugeShape.empty())
    assert geom.area_omega1 == pytest.approx(1.0, abs=0.0)
    assert geom.omega1_mask.all()
    assert geom.n_omega1 == geom.grid.n_cells


def test_refuge_touching_edge_rejected():
    touching = RefugeShape.rectangle((0.125, 0.5), (0.125, 0.125))  # hits x = 0
    with pytest.raises(RefugeTouchesBoundary):
        build_geometry(GridSpec(32, 32), touching)


def test_refuge_margin_rule_two_cells():
    grid = GridSpec(32, 32)  # h = 1/32
    thin_margin = RefugeShape.rectangle((0.5, 0.5), (0.5 - 1.5 / 32, 0.25))
    with pytest.raises(RefugeTouchesBoundary):
        build_geometry(grid, thin_margin)


def test_degenerate_grid_rejected():
    with pytest.raises(DegenerateGrid):
        GridSpec(3, 16)
    with pytest.raises(DegenerateGrid):
        GridSpec(16, 16, lx=0.0)


@pytest.mark.parametrize(
    "refuge",
    [
        RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125)),
        RefugeShape.disc((0.5, 0.5), 0.2),
        RefugeShape.empty(),
        RefugeShape.rectangle((0.4, 0.6), (0.1, 0.2)),
    ],
)
def test_cell_classes_partition(refuge):
    geom = build_geometry(GridSpec(48, 48), refuge)
    in_refuge = refuge.contains(*geom.grid.cell_centers())
    # every cell is either in the refuge or in the predator domain
    np.testing.assert_array_equal(geom.omega1_mask, ~in_refuge)
    assert int(in_refuge.sum()) + geom.n_omega1 == geom.grid.n_cells
    np.testing.assert_array_equal(geom.omega1_flat, geom.omega1_mask.ravel())


def test_refuge_cells_never_touch_boundary():
    geom = build_geometry(GridSpec(40, 40), RefugeShape.disc((0.5, 0.5), 0.3))
    edge = np.zeros_like(geom.omega1_mask)
    edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
    assert np.all(geom.omega1_mask[edge])


def test_disc_area_converges_first_order():
    radius = 0.2
    exact = 1.0 - np.pi * radius**2
    errors = []
    for n in (32, 64, 128):
        geom = build_geometry(GridSpec(n, n), RefugeShape.disc((0.5, 0.5), radius))
        errors.append(abs(geom.area_omega1 - exact))
        assert errors[-1] <= 2 * np.pi * radius * (1.0 / n)  # within perimeter * h
    assert errors[2] < errors[0]


def test_field_length_checked(geom64):
    bad = ScalarField(np.zeros(10), Region.OMEGA)
    with pytest.raises(RegionMismatch):
        geom64.check_field(bad)


def test_swapped_regions_are_a_region_mismatch(geom16):
    st = constant_state(geom16, 1.0, 0.1)
    with pytest.raises(RegionMismatch) as info:
        SystemState(st.v, st.u)
    assert isinstance(info.value, RefugiaError)
