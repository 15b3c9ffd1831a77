import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import CENTER_RECT, branch_slope_analytic
from refugia import steady
from refugia.dynamics import TransientConfig, run_to_steady
from refugia.errors import LinearSolveFailure, NoConvergence, SingularJacobian
from refugia.fields import SystemState, constant_state
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import ModelParams, assemble_jacobian, cell_graph, coupled_order
from refugia.steady import NewtonConfig, bordered_newton, newton_solve, solve_kernel_function

CFG = NewtonConfig()


def test_newton_keeps_semitrivial(geom32):
    for mu in (0.0, 0.7, 1.2, 3.0):
        p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=mu)
        out = newton_solve(constant_state(geom32, 1.0, 0.0), p, CFG, geom32)
        assert out.iterations <= 2
        assert np.max(np.abs(out.state.as_vector() - constant_state(geom32, 1.0, 0.0).as_vector())) == 0.0


def test_newton_keeps_origin(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    out = newton_solve(constant_state(geom32, 0.0, 0.0), p, CFG, geom32)
    assert np.max(np.abs(out.state.as_vector())) == 0.0


@pytest.mark.parametrize("mu", [0.9, 1.1])
def test_constant_start_lands_on_the_predator_free_state(geom16, mu):
    # the steady run starts from the constant (lam, 0.05*lam); from any
    # constant predator level, on either side of mu* = 1, Newton lands on
    # (lam, 0) in two iterations, so that level decides no state
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=mu)
    free = constant_state(geom16, 1.0, 0.0).as_vector()
    for level in (0.05, 0.5, 1.0):
        out = newton_solve(constant_state(geom16, 1.0, level), p, CFG, geom16)
        assert out.iterations == 2
        assert np.max(np.abs(out.state.as_vector() - free)) <= CFG.tol_residual


def test_newton_coexistence_matches_transient(geom32):
    # the coexistence branch sits at amplitude ~0.35 at mu = 0.9, so the
    # tangent offset must be of that size to land in its Newton basin
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    kt = solve_kernel_function(p, geom32)
    x0 = constant_state(geom32, 1.0, 0.0).as_vector() + 0.3 * kt.direction(geom32)
    newton = newton_solve(
        SystemState.from_vector(np.maximum(x0, 0.0), geom32.n_omega), p, CFG, geom32
    )
    assert newton.residual_norm <= 1e-10
    assert newton.state.v.values.min() > 0.0
    transient = run_to_steady(
        constant_state(geom32, 1.0, 0.05).as_vector(),
        p,
        TransientConfig(dt=0.2, t_end=3000.0, steady_tol=3e-7),
        geom32,
    )
    assert transient.converged
    gap = np.max(np.abs(transient.x - newton.state.as_vector()))
    assert gap <= 1e-4


def test_newton_small_offset_falls_back_to_semitrivial(geom32):
    # from a tangent offset well below the branch amplitude, Newton returns
    # to the nearest root, the predator-free state
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    kt = solve_kernel_function(p, geom32)
    x0 = constant_state(geom32, 1.0, 0.0).as_vector() + 0.1 * kt.direction(geom32)
    out = newton_solve(
        SystemState.from_vector(np.maximum(x0, 0.0), geom32.n_omega), p, CFG, geom32
    )
    assert out.state.v.values.mean() < 1e-6


@pytest.mark.parametrize("offset", [0.1, 0.3])
def test_newton_reuses_its_lu(geom32, scipy_counters, offset):
    # newton_solve is a chord iteration: one LU of J serves several updates,
    # and below 1e-3 every update still lowers the residual
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    kt = solve_kernel_function(p, geom32)
    x0 = constant_state(geom32, 1.0, 0.0).as_vector() + offset * kt.direction(geom32)
    scipy_counters.splu_shapes.clear()
    out = newton_solve(SystemState.from_vector(x0, geom32.n_omega), p, CFG, geom32)
    assert out.residual_norm <= CFG.tol_residual
    assert len(scipy_counters.splu_shapes) < out.iterations
    hist = out.residual_history
    tail = hist[next(i for i, r in enumerate(hist) if r < 1e-3):]
    assert all(nxt < prev for prev, nxt in zip(tail, tail[1:]))


def test_failed_factorization_raises_singular_jacobian(geom16, monkeypatch):
    # the error contract: a failing LU of J (factored in the geometry's
    # coupled order) surfaces as SingularJacobian, a NoConvergence
    # (continuation halves its step on it), and a failing LU of the cell
    # graph, which the kernel-function solve runs on, as LinearSolveFailure
    import scipy.sparse.linalg as spla

    def broken_splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    coupled_order(geom16)  # build the order first: only the LU of J fails here
    monkeypatch.setattr(spla, "splu", broken_splu)
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    x0 = constant_state(geom16, 1.0, 0.0).as_vector()
    x0[geom16.n_omega :] += 1e-3
    with pytest.raises(SingularJacobian):
        newton_solve(SystemState.from_vector(x0, geom16.n_omega), p, CFG, geom16)
    fresh = build_geometry(GridSpec(16, 16), geom16.refuge)  # geom16's cell graph is cached
    with pytest.raises(LinearSolveFailure, match="cell graph I - lap_omega failed: Factor"):
        solve_kernel_function(p, fresh)


def test_blown_up_update_is_a_singular_jacobian(geom16, scipy_counters):
    # a handed LU whose solves come back 1e20 times too large: the first
    # update is refused before any LU of J is made
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    x = constant_state(geom16, 0.5, 0.5).as_vector()
    huge = SimpleNamespace(solve=lambda r: 1e20 * r)
    with pytest.raises(SingularJacobian, match="blew up"):
        bordered_newton(x, p.mu, np.zeros_like(x), 1.0, p.mu, p, geom16, CFG, lu=huge)
    assert scipy_counters.splu_shapes == []


def test_singular_schur_scalar_is_no_convergence(geom16):
    # a constraint row of zeros on x and on mu: the bordered matrix is
    # singular, its Schur scalar row_mu - row_x.J^-1 f_mu exactly 0
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    x = constant_state(geom16, 1.0, 0.1).as_vector()
    with pytest.raises(NoConvergence, match="Schur scalar 0.000e\\+00 is singular"):
        bordered_newton(x, p.mu, np.zeros_like(x), 0.0, 0.0, p, geom16, CFG)


def test_a_constraint_the_clamp_keeps_unmet_is_not_converged(geom16):
    # the amplitude pinned at -1e-8 from a start at +1e-8 across the
    # bifurcation (mu* = 1): the update lands on the branch's mirror image,
    # whose predator density is negative, and the clamp zeroes it. There the
    # residual, 5e-9, meets tol_residual, but the constraint misses by 1e-8,
    # so that point is not returned; the next update finds no mu direction
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    base = constant_state(geom16, 1.0, 0.0).as_vector()
    x = base + 1e-8 * solve_kernel_function(p, geom16).direction(geom16)
    n1 = geom16.n_omega1
    row_x = np.concatenate([np.zeros(geom16.n_omega), np.full(n1, 1.0 / n1)])
    with pytest.raises(NoConvergence, match="Schur scalar"):
        bordered_newton(x, 1.0, row_x, 0.0, -1e-8, p, geom16, NewtonConfig(tol_residual=1e-7))


@pytest.mark.parametrize("bad,message", [({"tol_residual": 0.0}, "tol_residual must be positive"),
                                         ({"max_iter": 1}, "max_iter must be >= 2")])
def test_newton_config_rejects_bad_values(bad, message):
    with pytest.raises(ValueError, match=message):
        NewtonConfig(**bad)


def test_kernel_solve_is_held_to_the_backward_error_bound(geom16, monkeypatch):
    # a solve off by 1e-9 relative, alternating in sign from cell to cell,
    # has a backward error of about 5e-10, far above LINSOLVE_RTOL = 1e-12;
    # the error is relative, so it reads the same at b = 1e-9, where its
    # scale ||A||*||alpha|| + ||rhs|| is 9.6e-7 and its residual 4.8e-16
    graph = cell_graph(geom16)
    signs = (-1.0) ** np.arange(geom16.n_omega)
    noisy = SimpleNamespace(solve=lambda r: graph.lu.solve(r) * (1.0 + 1e-9 * signs))
    monkeypatch.setattr(steady, "cell_graph", lambda geom: dataclasses.replace(graph, lu=noisy))
    for b in (1.0, 1e-9):
        with pytest.raises(LinearSolveFailure, match="backward error"):
            solve_kernel_function(ModelParams(lam=1.0, m=1.0, c=2.0, b=b, mu=1.0), geom16)


def test_newton_at_threshold_still_finds_a_root(geom16):
    # exactly at mu* the bifurcation-point linearization is singular, but the
    # perturbed-state Jacobian is regularized by the coupling; Newton degrades
    # gracefully onto one of the intersecting roots
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    x0 = constant_state(geom16, 1.0, 0.0).as_vector()
    x0[geom16.n_omega :] += 1e-3
    try:
        out = newton_solve(SystemState.from_vector(x0, geom16.n_omega), p, CFG, geom16)
    except (SingularJacobian, NoConvergence):
        return  # loud failure is the documented alternative
    assert out.residual_norm <= CFG.tol_residual


def test_kernel_constant_without_refuge():
    geom = build_geometry(GridSpec(16, 16), RefugeShape.empty())
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    kt = solve_kernel_function(p, geom)
    np.testing.assert_allclose(kt.alpha, 0.5, rtol=0, atol=1e-12)


def test_kernel_maximum_principle(geom64):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    kt = solve_kernel_function(p, geom64)
    a = kt.alpha.reshape(geom64.grid.nx, geom64.grid.ny)
    assert a.min() > 0.0
    assert a.max() < 0.5
    refuge = ~geom64.omega1_mask
    assert np.unravel_index(np.argmin(a), a.shape) in set(zip(*np.nonzero(refuge)))
    assert a[geom64.omega1_mask].max() == a.max()


def test_kernel_mean_identity(geom64):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    kt = solve_kernel_function(p, geom64)
    h2 = geom64.grid.hx * geom64.grid.hy
    lhs = kt.alpha.sum() * h2
    rhs = p.b * geom64.area_omega1 / (1.0 + p.m * p.lam)
    assert abs(lhs - rhs) <= 1e-8
    assert lhs == pytest.approx(0.5 * geom64.area_omega1, abs=1e-8)


def test_kernel_independent_of_mu(geom32):
    a1 = solve_kernel_function(
        ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.5), geom32
    ).alpha
    a2 = solve_kernel_function(
        ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=2.5), geom32
    ).alpha
    np.testing.assert_array_equal(a1, a2)


def test_kernel_annihilated_by_bifurcation_jacobian(geom64):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)  # mu = mu* analytically
    kt = solve_kernel_function(p, geom64)
    st = constant_state(geom64, 1.0, 0.0)
    J = assemble_jacobian(p, st.as_vector(), geom64)
    d = kt.direction(geom64)
    assert np.max(np.abs(J @ d)) <= 1e-8 * np.max(np.abs(d))


def test_kernel_on_fine_off_centre_disc():
    # at 128^2 the relative residual of an exact solve grows like cond ~ h^-2
    # past 1e-12; the backward-error check still accepts it
    geom = build_geometry(GridSpec(128, 128), RefugeShape.disc((0.4, 0.55), 0.15))
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    kt = solve_kernel_function(p, geom)
    a = kt.alpha.reshape(geom.grid.nx, geom.grid.ny)
    assert 0.0 < a.min() and a.max() < 0.5  # maximum principle, 0 <= rhs <= 1/2
    st = constant_state(geom, 1.0, 0.0)
    J = assemble_jacobian(p, st.as_vector(), geom)
    d = kt.direction(geom)
    assert np.max(np.abs(J @ d)) <= 1e-8 * np.max(np.abs(d))


def test_kernel_slope_converges_at_second_order_on_both_cell_shapes():
    # the branch slope s1 from kernel solves alone: second order on the
    # centred square, and on lx = 1.6 the Richardson limits of square cells
    # and of cells with hx = 1.6*hy agree; swapping the two axes' face
    # weights keeps every order near 2 but splits the limits
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)

    def slopes(refuge, grids, lx=1.0):
        return np.array([branch_slope_analytic(p, build_geometry(GridSpec(nx, ny, lx), refuge))
                         for nx, ny in grids])

    def orders(s):
        d = np.diff(s)
        return np.log2(np.abs(d[:-1] / d[1:]))

    centred = slopes(CENTER_RECT, [(n, n) for n in (16, 32, 64, 128)])
    np.testing.assert_allclose(orders(centred), 2.0, rtol=0, atol=0.05)
    refuge = RefugeShape.rectangle((0.6, 0.5), (0.2, 0.2))  # its edges lie on faces
    limits = []
    for grids in ([(32, 20), (64, 40), (128, 80)], [(20, 20), (40, 40), (80, 80)]):
        s = slopes(refuge, grids, lx=1.6)
        np.testing.assert_allclose(orders(s), 2.0, rtol=0, atol=0.05)
        limits.append(s[2] + (s[2] - s[1]) / 3)
    assert abs(limits[0] - limits[1]) <= 1e-7
