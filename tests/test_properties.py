"""Property tests of the face-table operators, of the leading eigenvalue
against a dense oracle, and of whole runs, over random refuges and grids.

Rectangles and discs of random size and position (always more than two cell
widths inside the habitat), or no refuge, on grids with nx != ny and
lx != ly in general.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import branch_slope_analytic, no_refuge_branch_oracle
from refugia.config import KINDS, RANGE_KINDS, parse_config
from refugia.continuation import branch_switch, continue_branch, solve_at_amplitude
from refugia.errors import ContinuationStalled, RefugiaError
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import (
    ModelParams,
    assemble_jacobian,
    coupled_order,
    frozen_diffusion_matrix,
    laplacian_neumann,
    nonlinear_diffusion,
    residual_steady,
    split,
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
    mu, x = params.mu, None
    for fraction in (0.5, 0.9):
        point, _ = solve_at_amplitude(params, geom, fraction * top, mu, x_guess=x)
        mu, x = point.mu, point.x
        assert mu > 0.0
        J = assemble_jacobian(params.with_mu(mu), x, geom)
        ep = leading_eigenvalue(J, coupled_order(geom))
        dense = np.linalg.eigvals(J.toarray())
        lead = dense[np.argmax(dense.real)]
        assert ep.value == pytest.approx(lead.real, abs=1e-8)
        assert ep.complex_pair == (abs(lead.imag) > 1e-10)


@given(
    geometries(),
    st.floats(0.3, 3.0),
    st.floats(0.1, 6.0),
    st.floats(0.5, 4.0),
    st.floats(0.2, 3.0),
)
def test_transcritical_normal_form(geom, lam, m_lam, c, b):
    # Crandall & Rabinowitz: at predator amplitude a, (mu - mu*)/a -> s1 < 0
    # and gamma/(mu - mu*) -> 1, both at first order in a, so halving a
    # halves each gap and one Richardson step lands near each limit. m*lam
    # stays >= 0.1: at m = 0 without a refuge the branch is exactly linear
    # and its gaps are rounding noise
    m = m_lam / lam
    mu_star = c * lam / (1.0 + m_lam)
    params = ModelParams(lam=lam, m=m, c=c, b=b, mu=mu_star)
    s1 = branch_slope_analytic(params, geom)
    assert s1 < 0
    amps = 0.02 * lam * 2.0 ** -np.arange(3)
    points = [solve_at_amplitude(params, geom, a, mu_star + s1 * a)[0] for a in amps]
    gap = np.array([point.mu for point in points]) - mu_star
    q = gap / amps
    r = np.array([point.gamma for point in points]) / gap
    assert np.all(q < 0), q
    for err in (q - s1, r - 1.0):
        shrink = np.abs(err[:-1] / err[1:])
        assert np.all((shrink >= 1.8) & (shrink <= 3.0)), shrink
    assert abs(2.0 * q[2] - q[1] - s1) <= 1e-3 * abs(s1)
    assert abs(2.0 * r[2] - r[1] - 1.0) <= 1e-2


#: the shared-LU sweep's grid (nx != ny, lx != ly) and its three refuges
SWEEP_GRID = GridSpec(16, 10, lx=1.6, ly=1.0)
SWEEP_REFUGES = {
    "none": RefugeShape.empty(),
    "centred square": RefugeShape.rectangle((0.8, 0.5), (0.2, 0.2)),
    "off-centre disc": RefugeShape.disc((0.6, 0.45), 0.2),
}


@settings(max_examples=12)
@given(
    st.sampled_from(sorted(SWEEP_REFUGES)),
    st.floats(1.0, 4.0),
    st.floats(1.2, 4.0),
    st.floats(0.5, 3.0),
    st.floats(0.5, 2.0),
    st.floats(0.5, 0.9),
)
@example("none", 1.0, 1.203125, 0.5, 1.0, 0.5)  # a step lands on u = 0; its halved retry does not
@example("none", 1.0, 1.5, 2.0, 2.0, 0.5)  # 8 steps end at mu = 0.2888, above mu_H = 0.2667
def test_branch_point_leading_eigenvalue_matches_dense(refuge, lam, m_lam, c, b, reach):
    # a branch point's eigen solve runs at sigma = 0 on its LU of J, which
    # returns the pairs nearest 0 rather than the rightmost. Walk an enriched
    # branch: two amplitude-pinned points up to `reach` of the constant-mode
    # fold, then continuation past the fold, where the leading pair turns
    # complex and crosses into the right half-plane (without a refuge the
    # Hopf point is the fold itself, and the walk goes on, 4 steps at a time
    # up to 16, until it is past it) and, as u falls towards 0, real prey
    # modes with vanishing diffusion crowd in near 0
    geom = build_geometry(SWEEP_GRID, SWEEP_REFUGES[refuge])
    m = m_lam / lam
    params = ModelParams(lam=lam, m=m, c=c, b=b, mu=c * lam / (1.0 + m_lam))
    top = m * (lam + 1.0 / m) ** 2 / (4.0 * b)
    u_hopf = 0.5 * (lam - 1.0 / m)
    mu_hopf = c * u_hopf / (1.0 + m * u_hopf)
    first, _ = solve_at_amplitude(params, geom, 0.5 * reach * top, params.mu)
    second, _ = solve_at_amplitude(params, geom, reach * top, first.mu, x_guess=first.x)
    walk = [first, second]
    for n_steps in (8, 4, 4):
        start = walk[-1]
        direction = (start.x - walk[-2].x, start.mu - walk[-2].mu)
        try:
            branch = continue_branch(start, direction, n_steps, 0.15 * top, params, geom)
        except ContinuationStalled as exc:  # the branch ran into mu = 0: keep its points
            branch = exc.branch
        walk += branch.points[1:]
        if refuge != "none" or walk[-1].mu < mu_hopf or branch.end is None:  # None: stalled
            break
    for point in walk:
        J = assemble_jacobian(params.with_mu(point.mu), point.x, geom)
        dense = np.linalg.eigvals(J.toarray())
        lead = dense[np.argmax(dense.real)]
        assert point.gamma == pytest.approx(lead.real, abs=1e-8)
        assert point.eigen_residual <= 1e-8
        assert point.complex_pair == (abs(lead.imag) > 1e-10)
    if refuge == "none":  # the walk reaches past the Hopf point
        assert branch.points[-1].mu < mu_hopf


@settings(max_examples=8)
@given(
    st.integers(6, 64),
    st.integers(6, 64),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.floats(0.2, 3.0),
    st.floats(0.5, 3.0),
    st.floats(0.5, 2.0),
)
def test_no_refuge_branch_meets_its_closed_form_on_any_grid(nx, ny, lx, ly, lam, m_lam, c, b):
    # the closed-form branch (conftest.no_refuge_branch_oracle) on grids up
    # to 64^2 with lx != ly, on both sides of m*lam = 1: from branch_switch,
    # 6 steps of a sixth of the branch's arclength in the metric
    # sqrt(mean(dx^2) + dmu^2) from (lam, 0) to its state u = 0.2*lam. The
    # walks end at u between 0.09*lam and 0.34*lam, short of the stall near
    # mu = 0 (ROADMAP item 7), most of them past the Hopf point
    # u_H = (lam - 1/m)/2 where m*lam > 5/3
    grid = GridSpec(nx, ny, lx, ly)
    geom = build_geometry(grid, RefugeShape.empty())
    m = m_lam / lam
    mu_star = c * lam / (1.0 + m_lam)
    params = ModelParams(lam=lam, m=m, c=c, b=b, mu=mu_star)
    us = np.linspace(lam, 0.2 * lam, 200)
    mus, vs = c * us / (1.0 + m * us), (lam - us) * (1.0 + m * us) / b
    reach = np.sum(np.sqrt(0.5 * (np.diff(us) ** 2 + np.diff(vs) ** 2) + np.diff(mus) ** 2))
    start, lu = branch_switch(mu_star, params, geom, s0=0.05 * lam)
    base = np.concatenate([np.full(geom.n_omega, lam), np.zeros(geom.n_omega1)])
    direction = (start.x - base, start.mu - mu_star)
    branch = continue_branch(start, direction, 6, reach / 6, params, geom, lu=lu)
    for point in branch.points:
        u, v, leading = no_refuge_branch_oracle(params, point.mu, grid)
        got_u, got_v = split(point.x, geom)
        assert max(np.abs(got_u - u).max(), np.abs(got_v - v).max()) <= 1e-9
        assert point.gamma == pytest.approx(leading.real, abs=1e-9)
        if abs(leading.imag) > 1e-6:
            assert point.complex_pair


def _error_names(cls=RefugiaError) -> set[str]:
    return {cls.__name__}.union(*(_error_names(sub) for sub in cls.__subclasses__()))


def _config_text(geom, kind, lam, m, c, b, lo, hi, step) -> str:
    """A run config on geom's grid and refuge. The scalar kinds run at
    mu = lo*mu* with time step step*50 up to 200 such steps, the range kinds
    over the window [lo, hi]*mu* with arclength step step and up to 16 steps."""
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
                     "solver.transient.t_end": 10_000 * step})
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
    # and typed below the base class, which names no particular failure
    typed = _error_names() - {RefugiaError.__name__}
    assert all(detail.split(":", 1)[0] in typed for detail in failed), failed
