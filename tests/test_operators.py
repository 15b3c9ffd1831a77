import numpy as np
import pytest
import scipy.sparse as sp

from conftest import smooth_positive
from refugia.config import parse_config
from refugia.dynamics import TransientConfig, run_to_steady
from refugia.continuation import solve_at_amplitude
from refugia.errors import LinearSolveFailure, NegativePrey, RegionMismatch, SingularJacobian
from refugia.fields import Region, ScalarField, SystemState, constant_state
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.runner import run_experiment
from refugia.operators import (
    PERMC_SPEC,
    ModelParams,
    assemble_jacobian,
    coupled_order,
    factor,
    laplacian_neumann,
    nonlinear_diffusion,
    _face_divergence,
    reaction_terms,
    residual_mu_derivative,
    residual_steady,
    rhs_transient,
    split,
)

PARAMS = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)


def _profile_grids():
    return [build_geometry(GridSpec(n, n), RefugeShape.empty()) for n in (32, 64, 128)]


def test_laplacian_annihilates_constants(geom64):
    f = np.full(geom64.n_omega, 3.7)
    assert np.all(laplacian_neumann(f, geom64) == 0.0)
    g = np.full(geom64.n_omega1, -2.2)
    assert np.all(laplacian_neumann(g, geom64) == 0.0)


def test_nonlinear_diffusion_annihilates_constants(geom64):
    u = np.full(geom64.n_omega, 0.8)
    assert np.all(nonlinear_diffusion(u, geom64) == 0.0)


def test_laplacian_cosine_convergence():
    errors = []
    for geom in _profile_grids():
        X, _ = geom.grid.cell_centers()
        f = np.cos(np.pi * X).ravel()
        exact = -np.pi**2 * np.cos(np.pi * X).ravel()
        errors.append(np.max(np.abs(laplacian_neumann(f, geom) - exact)))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9
    # absolute size at 64 cells/side: C * h^2 with C ~ pi^4 / 12
    assert errors[1] <= 10.0 * (1.0 / 64) ** 2


def test_nonlinear_diffusion_convergence():
    errors = []
    for geom in _profile_grids():
        X, Y = geom.grid.cell_centers()
        u = 2.0 + np.cos(np.pi * X) * np.cos(np.pi * Y)
        gradsq = np.pi**2 * (
            np.sin(np.pi * X) ** 2 * np.cos(np.pi * Y) ** 2
            + np.cos(np.pi * X) ** 2 * np.sin(np.pi * Y) ** 2
        )
        exact = gradsq + u * (-2.0 * np.pi**2 * np.cos(np.pi * X) * np.cos(np.pi * Y))
        out = nonlinear_diffusion(u.ravel(), geom)
        errors.append(np.max(np.abs(out - exact.ravel())))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_smallest_nonzero_laplacian_eigenvalue_is_pi_squared():
    geom = build_geometry(GridSpec(16, 16), RefugeShape.empty())
    dense = geom.lap_omega.toarray()
    eigs = np.sort(np.linalg.eigvalsh(-(dense + dense.T) / 2))
    assert abs(eigs[0]) < 1e-10  # constant mode
    # discrete eigenvalue pi^2 * (1 - (pi h)^2 / 12 + ...) with h = 1/16
    assert eigs[1] == pytest.approx(np.pi**2, abs=0.04)


def test_interior_half_laplacian_identity(geom64):
    rng = np.random.default_rng(3)
    u = smooth_positive(geom64.grid, rng, base=2.0)
    nd = nonlinear_diffusion(u.ravel(), geom64)
    half = laplacian_neumann((u**2).ravel(), geom64)
    diff = np.abs(nd - 0.5 * half).reshape(64, 64)
    interior = diff[1:-1, 1:-1]
    assert interior.max() <= 1e-8


def test_conservation_of_flux_forms(geom64):
    rng = np.random.default_rng(5)
    u = smooth_positive(geom64.grid, rng, base=1.5)
    nd = nonlinear_diffusion(u.ravel(), geom64)
    assert abs(nd.sum()) <= 1e-7  # telescoping fluxes, 1/h^2 scale
    lap = laplacian_neumann(u.ravel(), geom64)
    assert abs(lap.sum()) <= 1e-7
    v = ScalarField(smooth_positive(geom64.grid, rng, base=0.7)[geom64.omega1_mask], Region.OMEGA1)
    lap_v = laplacian_neumann(v.values, geom64)
    assert abs(lap_v.sum()) <= 1e-7


def test_negative_prey_rejected(geom16):
    u = np.full(geom16.n_omega, 1.0)
    u[7] = -1e-6
    with pytest.raises(NegativePrey):
        nonlinear_diffusion(u, geom16)


def test_tiny_negative_clamped(geom16):
    u = np.full(geom16.n_omega, 1.0)
    u[7] = -5e-13  # inside the clamp band
    out = nonlinear_diffusion(u, geom16)
    assert np.all(np.isfinite(out))


def test_nonlinear_diffusion_requires_prey_region(geom16):
    v = np.ones(geom16.n_omega1)
    with pytest.raises(RegionMismatch):
        nonlinear_diffusion(v, geom16)


@pytest.mark.parametrize(
    "grid,refuge",
    [
        (GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2)),
        (GridSpec(12, 12), RefugeShape.empty()),
    ],
    ids=["off-centre-disc", "no-refuge"],
)
def test_wrong_lengths_are_region_mismatches(grid, refuge):
    # every entry point of a state vector or a single field checks its length
    geom = build_geometry(grid, refuge)
    x = constant_state(geom, 1.0, 0.1).as_vector()
    short, short_u, short_v = x[:-1], x[: geom.n_omega - 1], x[: geom.n_omega1 - 1]
    calls = [
        lambda: residual_steady(PARAMS, short, geom),
        lambda: rhs_transient(PARAMS, short, geom),
        lambda: assemble_jacobian(PARAMS, short, geom),
        lambda: residual_mu_derivative(short, geom),
        lambda: nonlinear_diffusion(short_u, geom),
        lambda: laplacian_neumann(short_u, geom),
        lambda: laplacian_neumann(short_v, geom),
    ]
    for call in calls:
        with pytest.raises(RegionMismatch):
            call()


def test_laplacian_without_refuge_uses_the_prey_table():
    # with no refuge both regions have every cell, and their face tables agree
    geom = build_geometry(GridSpec(12, 12), RefugeShape.empty())
    assert geom.n_omega1 == geom.n_omega
    f = smooth_positive(geom.grid, np.random.default_rng(19)).ravel()
    lap = laplacian_neumann(f, geom)
    assert np.array_equal(lap, _face_divergence(geom.faces_u, f))
    assert np.array_equal(lap, _face_divergence(geom.faces_v, f))


def test_reaction_terms_vanish_at_carrying_capacity(geom32):
    for lam in (1.0, 2.0, 0.5):
        p = ModelParams(lam=lam, m=1.0, c=2.0, b=1.0, mu=0.9)
        st = constant_state(geom32, lam, 0.0)
        f_u, f_v = reaction_terms(p, st.u.values, st.v.values, geom32, p.lam)
        assert np.max(np.abs(f_u)) == 0.0
        assert np.max(np.abs(f_v)) == 0.0


def test_reaction_terms_vanish_at_origin(geom32):
    st = constant_state(geom32, 0.0, 0.0)
    f_u, f_v = reaction_terms(PARAMS, st.u.values, st.v.values, geom32, PARAMS.lam)
    assert np.max(np.abs(f_u)) == 0.0
    assert np.max(np.abs(f_v)) == 0.0


def test_reaction_terms_hand_values(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    st = constant_state(geom32, 1.0, 1.0)
    f_u, f_v = reaction_terms(p, st.u.values, st.v.values, geom32, p.lam)
    fu_grid = f_u.reshape(geom32.grid.nx, geom32.grid.ny)
    # on a predator-domain cell: 1 - 1 - (1*1*1)/2 = -0.5; inside the refuge: 0
    assert fu_grid[geom32.omega1_mask] == pytest.approx(-0.5)
    assert np.all(fu_grid[~geom32.omega1_mask] == 0.0)
    # predator equation: -1 + (2*1*1)/2 = 0
    assert np.max(np.abs(f_v)) == 0.0


def test_reaction_terms_against_scalar_oracle(geom16):
    rng = np.random.default_rng(11)
    p = ModelParams(lam=1.3, m=0.7, c=1.9, b=1.4, mu=0.8)
    ug = smooth_positive(geom16.grid, rng)
    vg = smooth_positive(geom16.grid, rng, base=0.6)
    u = ScalarField(ug.ravel(), Region.OMEGA)
    v = ScalarField(vg[geom16.omega1_mask], Region.OMEGA1)
    f_u, f_v = reaction_terms(p, u.values, v.values, geom16, p.lam)

    def scalar_fu(uu, vv, in_omega1):
        bb = p.b if in_omega1 else 0.0
        return p.lam * uu - uu * uu - bb * uu * vv / (1.0 + p.m * uu)

    def scalar_fv(uu, vv):
        return -p.mu * vv + p.c * uu * vv / (1.0 + p.m * uu)

    fu_grid = f_u.reshape(geom16.grid.nx, geom16.grid.ny)
    for i, j in ((0, 0), (5, 9), (8, 8), (15, 3)):
        in_o1 = bool(geom16.omega1_mask[i, j])
        vv = vg[i, j] if in_o1 else 0.0
        assert fu_grid[i, j] == pytest.approx(scalar_fu(ug[i, j], vv, in_o1), rel=1e-12)
    fv_grid = np.zeros((geom16.grid.nx, geom16.grid.ny))
    fv_grid[geom16.omega1_mask] = f_v
    assert fv_grid[5, 9] == pytest.approx(scalar_fv(ug[5, 9], vg[5, 9]), rel=1e-12)


def test_residual_zero_on_trivial_states(geom64):
    for lam in (1.0, 2.0):
        p = ModelParams(lam=lam, m=1.0, c=2.0, b=1.0, mu=1.1)
        st = constant_state(geom64, lam, 0.0)
        assert np.max(np.abs(residual_steady(p, st.as_vector(), geom64))) == 0.0
    st0 = constant_state(geom64, 0.0, 0.0)
    assert np.max(np.abs(residual_steady(PARAMS, st0.as_vector(), geom64))) == 0.0


def test_residual_recomposition(geom32):
    rng = np.random.default_rng(17)
    u = ScalarField(smooth_positive(geom32.grid, rng).ravel(), Region.OMEGA)
    v = ScalarField(smooth_positive(geom32.grid, rng, base=0.5)[geom32.omega1_mask], Region.OMEGA1)
    res = residual_steady(PARAMS, SystemState(u, v).as_vector(), geom32)
    f_u, f_v = reaction_terms(PARAMS, u.values, v.values, geom32, PARAMS.lam)
    expected_u = nonlinear_diffusion(u.values, geom32) + f_u
    expected_v = laplacian_neumann(v.values, geom32) + f_v
    np.testing.assert_allclose(res[: geom32.n_omega], expected_u, rtol=0, atol=1e-14)
    np.testing.assert_allclose(res[geom32.n_omega :], expected_v, rtol=0, atol=1e-14)


def test_rhs_transient_equilibrium(geom32):
    p = ModelParams(lam=1.5, m=1.0, c=2.0, b=1.0, mu=0.9, r=3.7)
    st = constant_state(geom32, 1.5, 0.0)
    rate = rhs_transient(p, st.as_vector(), geom32)
    assert np.max(np.abs(rate)) == 0.0


def test_rhs_transient_matches_steady_residual(geom32):
    # with d_u = d_v = 1 and r = lam the prey reaction is lam*u - u^2
    rng = np.random.default_rng(23)
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9, d_u=1.0, d_v=1.0, r=1.0)
    u = ScalarField(smooth_positive(geom32.grid, rng).ravel(), Region.OMEGA)
    v = ScalarField(smooth_positive(geom32.grid, rng, base=0.4)[geom32.omega1_mask], Region.OMEGA1)
    x = SystemState(u, v).as_vector()
    np.testing.assert_allclose(
        rhs_transient(p, x, geom32), residual_steady(p, x, geom32), rtol=0, atol=1e-12
    )


def test_rhs_transient_pointwise_logistic(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9, r=2.5)
    st = constant_state(geom32, 0.5, 0.0)
    du, _ = split(rhs_transient(p, st.as_vector(), geom32), geom32)
    assert du == pytest.approx(2.5 * 0.5 * 0.5)  # r * (lam/2) * (1 - 1/2)


def test_jacobian_block_structure_at_semitrivial(geom32):
    st = constant_state(geom32, 1.0, 0.0)
    J = assemble_jacobian(PARAMS, st.as_vector(), geom32)
    n = geom32.n_omega
    C = J[n:, :n]
    assert C.nnz == 0 or np.max(np.abs(C.data)) == 0.0
    ones_u = np.ones(n)
    np.testing.assert_allclose((J[:n, :n] @ ones_u), -1.0, rtol=0, atol=1e-11)


def test_jacobian_matches_finite_differences(geom16):
    rng = np.random.default_rng(29)
    eps = 1e-6
    for _ in range(3):
        u = ScalarField(smooth_positive(geom16.grid, rng).ravel(), Region.OMEGA)
        v = ScalarField(smooth_positive(geom16.grid, rng, base=0.5)[geom16.omega1_mask], Region.OMEGA1)
        x0 = np.concatenate([u.values, v.values])
        J = assemble_jacobian(PARAMS, x0, geom16)

        def resid(x):
            return residual_steady(PARAMS, x, geom16)

        d = rng.normal(size=x0.size)
        d /= np.max(np.abs(d))
        fd = (resid(x0 + eps * d) - resid(x0 - eps * d)) / (2 * eps)
        jd = J @ d
        assert np.linalg.norm(fd - jd) <= 1e-6 * np.linalg.norm(jd)


def test_block_triangular_spectrum_at_any_prey_profile():
    geom = build_geometry(GridSpec(8, 8), RefugeShape.rectangle((0.5, 0.5), (0.15, 0.15)))
    rng = np.random.default_rng(31)
    u = ScalarField(smooth_positive(geom.grid, rng).ravel(), Region.OMEGA)
    v = ScalarField(np.zeros(geom.n_omega1), Region.OMEGA1)
    J = assemble_jacobian(PARAMS, SystemState(u, v).as_vector(), geom).toarray()
    n = geom.n_omega
    spectrum = np.sort_complex(np.linalg.eigvals(J))
    blocks = np.sort_complex(
        np.concatenate([np.linalg.eigvals(J[:n, :n]), np.linalg.eigvals(J[n:, n:])])
    )
    np.testing.assert_allclose(spectrum, blocks, rtol=0, atol=1e-7)


VERIFY_DISC = """
experiment.kind = verify
geometry.nx = 14
geometry.ny = 10
geometry.lx = 1.4
geometry.refuge.kind = disc
geometry.refuge.center_x = 0.6
geometry.refuge.center_y = 0.45
geometry.refuge.radius = 0.2
params.lambda = 1.0
params.m = 1.0
params.c = 2.0
params.b = 1.0
params.mu_min = 0.8
params.mu_max = 1.2
params.mu_points = 5
solver.continuation.n_steps = 6
solver.continuation.ds = 0.03
"""


def test_every_lu_is_pattern_symmetric_in_symmetric_mode(scipy_counters, tmp_path):
    """factor's SymmetricMode assumes a symmetric pattern: check it on every
    matrix a verify pipeline and a transient run factor, that no call
    loosens partial pivoting, and the orderings: every coupled LU is the
    NATURAL one of the matrix permuted by coupled_order(geom), and
    every other LU takes SuperLU's minimum-degree order."""
    cfg = parse_config(VERIFY_DISC)
    manifest = run_experiment(cfg, tmp_path)
    assert manifest.exit_ok
    geom = build_geometry(cfg.grid, cfg.refuge)
    coexist = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    start = constant_state(geom, 1.0, 0.05)
    run_to_steady(start, coexist, TransientConfig(max_steps=5), geom)

    calls = list(scipy_counters.splu_calls)
    # the runner built an equal geometry of its own, and the order is deterministic
    unpermute = np.argsort(coupled_order(geom))
    jacobian = assemble_jacobian(coexist, start.as_vector(), geom).tocsc()
    jacobian.data[:] = 1.0
    n_coupled = 0
    assert len(calls) >= 10
    for A, args, kwargs in calls:
        pattern = A.tocsc(copy=True)  # the stored entries, explicit zeros included
        pattern.data[:] = 1.0
        assert (pattern != pattern.T).nnz == 0
        assert not args
        if A.shape == (geom.n_unknowns, geom.n_unknowns):
            n_coupled += 1
            assert kwargs["permc_spec"] == "NATURAL"
            unpermuted = pattern[unpermute][:, unpermute]
            assert unpermuted.multiply(jacobian).nnz == unpermuted.nnz
        else:
            assert kwargs["permc_spec"] == PERMC_SPEC == "MMD_AT_PLUS_A"
        assert kwargs["options"]["SymmetricMode"] is True
        assert kwargs.get("diag_pivot_thresh") in (None, 1.0)
        assert kwargs["options"].get("DiagPivotThresh", 1.0) == 1.0
    # one eigen LU per branch point; the corrector's LU is carried across steps
    assert n_coupled >= cfg.continuation.n_steps + 1


def test_factor_keeps_partial_pivoting():
    """Tiny diagonal pivots in 2x2 blocks: only row exchanges keep the solve
    accurate (a diagonal-preferring threshold of 0 loses about 1e-3), in
    SuperLU's order and in an order given to factor."""
    k = 20
    blocks = sp.block_diag([np.array([[1e-13, 1.0], [1.0, 1.0]])] * k)
    coupling = 1e-3 * sp.diags([np.ones(2 * k - 1), np.ones(2 * k - 1)], [-1, 1])
    A = (blocks + coupling).tocsr()
    rng = np.random.default_rng(3)
    b = rng.normal(size=2 * k)
    ref = np.linalg.solve(A.toarray(), b)
    for order in (None, np.arange(2 * k), rng.permutation(2 * k)):
        x = factor(A, LinearSolveFailure, "pivot test", order).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "grid,refuge",
    [
        (GridSpec(12, 12), RefugeShape.empty()),
        (GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2)),
        (GridSpec(10, 15, lx=0.8, ly=1.3), RefugeShape.rectangle((0.35, 0.7), (0.1, 0.25))),
    ],
    ids=["no-refuge", "off-centre-disc", "stretched-rectangle"],
)
def test_ordered_factor_matches_dense_solve(grid, refuge):
    # the order permutes all unknowns and puts each OMEGA1 cell's v right
    # after its u; the LU factored in it solves the coupled Jacobian
    geom = build_geometry(grid, refuge)
    order = coupled_order(geom)
    n = geom.n_omega
    assert np.array_equal(np.sort(order), np.arange(geom.n_unknowns))
    position = np.argsort(order)
    cells = np.flatnonzero(geom.omega1_flat)
    assert np.array_equal(position[n + np.arange(geom.n_omega1)], position[cells] + 1)
    rng = np.random.default_rng(5)
    u = ScalarField(smooth_positive(grid, rng, 0.8, 0.3).ravel(), Region.OMEGA)
    v = ScalarField(smooth_positive(grid, rng, 0.3, 0.2)[geom.omega1_mask], Region.OMEGA1)
    J = assemble_jacobian(PARAMS, SystemState(u, v).as_vector(), geom)
    shifted = J - 2.0 * sp.identity(geom.n_unknowns)
    b = rng.normal(size=geom.n_unknowns)
    for M in (J, shifted):
        x = factor(M, SingularJacobian, "ordered test", order).solve(b)
        ref = np.linalg.solve(M.toarray(), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert coupled_order(geom) is order  # built once per geometry


def test_paired_order_fill_is_no_worse_than_minimum_degree(geom32):
    # at this 32^2 coexistence point the paired order's LU of J keeps 80,196
    # entries and SuperLU's minimum-degree one 81,334
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    point = solve_at_amplitude(p, geom32, 0.1, p.mu)
    J = assemble_jacobian(p.with_mu(point.mu), point.state.as_vector(), geom32)
    paired = factor(J, SingularJacobian, "paired", coupled_order(geom32)).lu.nnz
    assert paired <= factor(J, SingularJacobian, "minimum degree").nnz
