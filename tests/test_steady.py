import numpy as np
import pytest

from refugia.dynamics import TransientConfig, run_to_steady
from refugia.errors import LinearSolveFailure, NoConvergence, SingularJacobian
from refugia.fields import SystemState, constant_state
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import ModelParams, assemble_jacobian, coupled_order
from refugia.steady import NewtonConfig, newton_solve, solve_kernel_function

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
        constant_state(geom32, 1.0, 0.05),
        p,
        TransientConfig(dt=0.2, t_end=3000.0, steady_tol=3e-7),
        geom32,
    )
    assert transient.converged
    gap = np.max(np.abs(transient.state.as_vector() - newton.state.as_vector()))
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
    np.testing.assert_allclose(kt.alpha.values, 0.5, rtol=0, atol=1e-12)


def test_kernel_maximum_principle(geom64):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    kt = solve_kernel_function(p, geom64)
    a = kt.alpha.values.reshape(geom64.grid.nx, geom64.grid.ny)
    assert a.min() > 0.0
    assert a.max() < 0.5
    refuge = ~geom64.omega1_mask
    assert np.unravel_index(np.argmin(a), a.shape) in set(zip(*np.nonzero(refuge)))
    assert a[geom64.omega1_mask].max() == a.max()


def test_kernel_mean_identity(geom64):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    kt = solve_kernel_function(p, geom64)
    h2 = geom64.grid.hx * geom64.grid.hy
    lhs = kt.alpha.values.sum() * h2
    rhs = p.b * geom64.area_omega1 / (1.0 + p.m * p.lam)
    assert abs(lhs - rhs) <= 1e-8
    assert lhs == pytest.approx(0.5 * geom64.area_omega1, abs=1e-8)


def test_kernel_independent_of_mu(geom32):
    a1 = solve_kernel_function(
        ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.5), geom32
    ).alpha.values
    a2 = solve_kernel_function(
        ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=2.5), geom32
    ).alpha.values
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
    a = kt.alpha.values.reshape(geom.grid.nx, geom.grid.ny)
    assert 0.0 < a.min() and a.max() < 0.5  # maximum principle, 0 <= rhs <= 1/2
    st = constant_state(geom, 1.0, 0.0)
    J = assemble_jacobian(p, st.as_vector(), geom)
    d = kt.direction(geom)
    assert np.max(np.abs(J @ d)) <= 1e-8 * np.max(np.abs(d))
