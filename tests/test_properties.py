"""Property tests of the face-table operators, of the leading eigenvalue
against a dense oracle, and of whole runs, over random refuges and grids.

Rectangles and discs of random size and position (always more than two cell
widths inside the habitat), or no refuge, on grids with nx != ny and
lx != ly in general.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refugia.config import KINDS, RANGE_KINDS, parse_config
from refugia.continuation import solve_at_amplitude
from refugia.errors import RefugiaError
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import (
    ModelParams,
    assemble_jacobian,
    coupled_order,
    frozen_diffusion_matrix,
    laplacian_neumann,
    nonlinear_diffusion,
    residual_steady,
)
from refugia.runner import run_experiment
from refugia.spectral import leading_eigenvalue

unit = st.floats(0.0, 1.0)


@st.composite
def geometries(draw, cells=(12, 20), lengths=(0.8, 1.5)):
    grid = GridSpec(
        draw(st.integers(*cells)),
        draw(st.integers(*cells)),
        draw(st.floats(*lengths)),
        draw(st.floats(*lengths)),
    )
    edge = 2.5 * max(grid.hx, grid.hy)  # refuge margin to keep, > 2h
    room = 0.5 * min(grid.lx, grid.ly) - edge  # > 0 for the ranges used here

    def centre(half, length):
        return edge + half + draw(unit) * (length - 2.0 * (edge + half))

    kind = draw(st.sampled_from(["rectangle", "disc", "empty"]))
    if kind == "rectangle":
        wx = draw(st.floats(0.2, 0.95)) * (0.5 * grid.lx - edge)
        wy = draw(st.floats(0.2, 0.95)) * (0.5 * grid.ly - edge)
        refuge = RefugeShape.rectangle((centre(wx, grid.lx), centre(wy, grid.ly)), (wx, wy))
    elif kind == "disc":
        r = draw(st.floats(0.2, 0.95)) * room
        refuge = RefugeShape.disc((centre(r, grid.lx), centre(r, grid.ly)), r)
    else:
        refuge = RefugeShape.empty()
    return build_geometry(grid, refuge)


seeds = st.integers(0, 2**32 - 1)


def _fields(geom, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.2, 1.5, geom.n_omega)
    v = rng.uniform(0.0, 1.0, geom.n_omega1)
    return u, v


@given(geometries(), st.floats(-3.0, 3.0), st.floats(0.0, 3.0))
def test_constants_map_to_exact_zeros(geom, c, c_pos):
    for f in (np.full(geom.n_omega, c), np.full(geom.n_omega1, c)):
        assert np.all(laplacian_neumann(f, geom) == 0.0)
    u = np.full(geom.n_omega, c_pos)
    assert np.all(nonlinear_diffusion(u, geom) == 0.0)


@given(geometries(), seeds)
def test_flux_divergences_sum_to_zero(geom, seed):
    u, v = _fields(geom, seed)
    outs = (laplacian_neumann(u, geom), laplacian_neumann(v, geom), nonlinear_diffusion(u, geom))
    for out in outs:
        assert abs(out.sum()) <= 1e-7  # telescoping fluxes, 1/h^2 scale
    # the matrix forms of the same face tables conserve too, column by column
    for M in (geom.lap_omega, geom.lap_omega1, frozen_diffusion_matrix(u, geom)):
        assert np.max(np.abs(M.sum(axis=0))) <= 1e-7


@given(geometries(), seeds)
def test_matrix_and_difference_forms_agree(geom, seed):
    u, v = _fields(geom, seed)
    scale = 1.0 / min(geom.grid.hx, geom.grid.hy) ** 2
    np.testing.assert_allclose(
        geom.lap_omega1 @ v,
        laplacian_neumann(v, geom),
        rtol=0,
        atol=1e-12 * scale,
    )
    np.testing.assert_allclose(
        frozen_diffusion_matrix(u, geom) @ u,
        nonlinear_diffusion(u, geom),
        rtol=0,
        atol=1e-12 * scale,
    )


@given(
    geometries(),
    seeds,
    st.floats(0.5, 4.0),
    st.floats(0.0, 2.0),
    st.floats(0.5, 3.0),
    st.floats(0.5, 2.0),
    st.floats(0.1, 2.0),
)
def test_jacobian_matches_finite_differences(geom, seed, lam, m, c, b, mu):
    params = ModelParams(lam=lam, m=m, c=c, b=b, mu=mu)
    u, v = _fields(geom, seed)
    x0 = np.concatenate([u, v])
    J = assemble_jacobian(params, x0, geom)

    def resid(x):
        return residual_steady(params, x, geom)

    d = np.random.default_rng(seed + 1).normal(size=x0.size)
    d /= np.max(np.abs(d))
    eps = 1e-6
    fd = (resid(x0 + eps * d) - resid(x0 - eps * d)) / (2 * eps)
    jd = J @ d
    assert np.linalg.norm(fd - jd) <= 1e-6 * np.linalg.norm(jd)


@settings(max_examples=8)
@given(
    geometries((12, 15)).filter(lambda g: g.grid.nx != g.grid.ny and g.grid.lx != g.grid.ly),
    st.floats(1.0, 4.0),
    st.floats(1.2, 4.0),
    st.floats(0.5, 3.0),
    st.floats(0.5, 2.0),
)
def test_leading_eigenvalue_matches_dense_on_enriched_branches(geom, lam, m_lam, c, b):
    # m*lam > 1: the coexistence branch reaches the paradox-of-enrichment
    # regime, where the leading pair turns complex. Pinned amplitudes stay
    # below 0.9 of the constant-mode maximum m*(lam + 1/m)^2/(4b), short of
    # the amplitude fold, so mu stays positive.
    m = m_lam / lam
    params = ModelParams(lam=lam, m=m, c=c, b=b, mu=c * lam / (1.0 + m_lam))
    top = m * (lam + 1.0 / m) ** 2 / (4.0 * b)
    mu, state = params.mu, None
    for fraction in (0.5, 0.9):
        point = solve_at_amplitude(params, geom, fraction * top, mu, state_guess=state)
        mu, state = point.mu, point.state
        assert mu > 0.0
        J = assemble_jacobian(params.with_mu(mu), state.as_vector(), geom)
        ep = leading_eigenvalue(J, coupled_order(geom))
        dense = np.linalg.eigvals(J.toarray())
        lead = dense[np.argmax(dense.real)]
        assert ep.value == pytest.approx(lead.real, abs=1e-8)
        assert ep.complex_pair == (abs(lead.imag) > 1e-10)


def _error_names(cls=RefugiaError) -> set[str]:
    return {cls.__name__}.union(*(_error_names(sub) for sub in cls.__subclasses__()))


def _config_text(geom, kind, lam, m, c, b, lo, hi, step) -> str:
    """A run config on geom's grid and refuge. The scalar kinds run at
    mu = lo*mu* with time step step*50, the range kinds over the window
    [lo, hi]*mu* with arclength step step and up to 16 steps."""
    grid, refuge = geom.grid, geom.refuge
    keys = {"experiment.kind": kind, "geometry.nx": grid.nx, "geometry.ny": grid.ny,
            "geometry.lx": grid.lx, "geometry.ly": grid.ly, "geometry.refuge.kind": refuge.kind,
            "params.lambda": lam, "params.m": m, "params.c": c, "params.b": b}
    if refuge.center is not None:
        keys["geometry.refuge.center_x"], keys["geometry.refuge.center_y"] = refuge.center
    if refuge.half_width is not None:
        keys["geometry.refuge.half_width_x"], keys["geometry.refuge.half_width_y"] = (
            refuge.half_width
        )
    if refuge.radius is not None:
        keys["geometry.refuge.radius"] = refuge.radius
    mu_star = c * lam / (1.0 + m * lam)
    if kind in RANGE_KINDS:
        keys.update({"params.mu_min": lo * mu_star, "params.mu_max": hi * mu_star,
                     "params.mu_points": 5, "solver.continuation.n_steps": 16,
                     "solver.continuation.ds": step})
    else:
        keys.update({"params.mu": lo * mu_star, "solver.transient.dt": 50 * step,
                     "solver.transient.max_steps": 200})
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=6, deadline=None)
@given(
    geometries((8, 16), (0.8, 1.25)).filter(
        lambda g: g.grid.nx != g.grid.ny and g.grid.lx != g.grid.ly
    ),
    st.floats(0.5, 3.0),
    st.floats(0.0, 2.0),
    st.floats(0.5, 3.0),
    st.floats(0.5, 2.0),
    st.floats(0.5, 0.95),
    st.floats(1.05, 1.5),
    st.floats(0.002, 0.06),
)
def test_every_failed_stage_names_a_refugia_error(kind, geom, lam, m, c, b, lo, hi, step):
    # the library's error contract over whole runs: a run may fail (no
    # crossing in the window, a stalled branch, an enriched case failing its
    # gates, a transient run out of steps), but every failure it records is
    # typed. Whether verify passes is not asserted: with m*lam <= 1 a branch
    # can still stall where it reaches mu = 0.
    cfg = parse_config(_config_text(geom, kind, lam, m, c, b, lo, hi, step))
    with tempfile.TemporaryDirectory() as out:  # hypothesis rejects tmp_path
        manifest = run_experiment(cfg, out)
    failed = [detail for _, status, detail in manifest.stages if status == "error"]
    assert manifest.exit_ok or failed
    assert all(detail.split(":", 1)[0] in _error_names() for detail in failed), failed
