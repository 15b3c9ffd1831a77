import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from refugia.errors import (
    DegenerateGrid,
    RefugeTouchesBoundary,
    RefugiaError,
    RegionMismatch,
)
from refugia.fields import SystemState, constant_state
from refugia.geometry import (
    GridSpec,
    RefugeShape,
    build_geometry,
    check_refuge_clearance,
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


@pytest.mark.parametrize("kind,shape,message", [
    ("triangle", {}, "refuge kind must be one of"),
    ("rectangle", {"center": (0.5, 0.5)}, "needs center and half_width"),
    ("disc", {"center": (0.5, 0.5)}, "needs center and radius"),
    ("rectangle", {"center": (0.5, 0.5), "half_width": (0.1, 0.0)}, "half widths must be positive"),
    ("disc", {"center": (0.5, 0.5), "radius": -0.1}, "radius must be positive"),
])
def test_refuge_shape_rejects_bad_arguments(kind, shape, message):
    with pytest.raises(ValueError, match=message):
        RefugeShape(kind, **shape)


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


@settings(max_examples=100)
@given(
    st.lists(st.integers(4, 48), min_size=2, max_size=2, unique=True),
    st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2, unique=True),
    st.sampled_from(["rectangle", "disc"]),
    st.lists(st.floats(2.0, 4.0), min_size=4, max_size=4),
    st.integers(0, 3),
    st.floats(0.0, 3.0),
    st.floats(0.05, 1.0),
    st.booleans(),
)
def test_clearance_keeps_refuge_off_the_edge_cells(ns, ls, kind, gaps, side, tight, size, mirror):
    """A refuge closure more than 2h from every side misses every edge-cell
    centre (h/2 from a side), so the clearance rule alone keeps the outer ring
    of cells in the predator domain, on non-square grids too."""
    grid = GridSpec(ns[0], ns[1], ls[0], ls[1])
    h = max(grid.hx, grid.hy)
    gaps[side] = tight  # one side may come closer than the rule allows
    left, right, bottom, top = (h * g for g in gaps)  # distances to the four sides
    if kind == "rectangle":
        wx, wy = 0.5 * (grid.lx - left - right), 0.5 * (grid.ly - bottom - top)
        assume(wx > 0 and wy > 0)
        refuge = RefugeShape.rectangle((left + wx, bottom + wy), (wx, wy))
    else:
        r = size * (0.5 * min(grid.lx, grid.ly) - 2.0 * h)
        assume(r > 0)
        cx, cy = left + r, bottom + r
        refuge = RefugeShape.disc((grid.lx - cx, grid.ly - cy) if mirror else (cx, cy), r)
    try:
        check_refuge_clearance(grid, refuge)
    except RefugeTouchesBoundary:
        assume(False)
    mask = build_geometry(grid, refuge).omega1_mask
    assert mask[0, :].all() and mask[-1, :].all() and mask[:, 0].all() and mask[:, -1].all()


def test_disc_area_converges_first_order():
    radius = 0.2
    exact = 1.0 - np.pi * radius**2
    errors = []
    for n in (32, 64, 128):
        geom = build_geometry(GridSpec(n, n), RefugeShape.disc((0.5, 0.5), radius))
        errors.append(abs(geom.area_omega1 - exact))
        assert errors[-1] <= 2 * np.pi * radius * (1.0 / n)  # within perimeter * h
    assert errors[2] < errors[0]


def test_swapped_regions_are_a_region_mismatch(geom16):
    st = constant_state(geom16, 1.0, 0.1)
    with pytest.raises(RegionMismatch) as info:
        SystemState(st.v, st.u)
    assert isinstance(info.value, RefugiaError)
