import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import CENTER_RECT, smooth_positive
from refugia import dynamics, operators
from refugia.dynamics import TransientConfig, _ImplicitSolver, run_to_steady
from refugia.errors import LinearSolveFailure, StepRejected
from refugia.fields import Region, ScalarField, SystemState, constant_state
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import (
    ModelParams,
    frozen_diffusion_matrix,
    reaction_terms,
    residual_steady,
    rhs_transient,
    split,
)
from refugia.steady import NewtonConfig, newton_solve

COEXIST = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9, r=1.0)
COEXIST_RUN = TransientConfig(dt=0.2, t_end=2000.0, steady_tol=1e-6)


def test_semitrivial_is_fixed_point(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.2, r=1.0)
    x = constant_state(geom32, 1.0, 0.0).as_vector()
    nxt = _ImplicitSolver(geom32, p, 0.1).advance(x, rhs_transient(p, x, geom32))
    assert np.max(np.abs(nxt - x)) <= 1e-10


def test_pure_diffusion_conserves_mass(geom32):
    p = ModelParams(lam=1.0, m=0.0, c=0.0, b=0.0, mu=0.0, r=0.0)
    rng = np.random.default_rng(7)
    x = SystemState(
        ScalarField(smooth_positive(geom32.grid, rng, base=1.2, wobble=0.3).ravel(), Region.OMEGA),
        ScalarField(np.zeros(geom32.n_omega1), Region.OMEGA1),
    ).as_vector()
    h2 = geom32.grid.hx * geom32.grid.hy
    mass = split(x, geom32)[0].sum() * h2
    for _ in range(5):
        x = _ImplicitSolver(geom32, p, 0.2).advance(x, rhs_transient(p, x, geom32))
        new_mass = split(x, geom32)[0].sum() * h2
        assert abs(new_mass - mass) <= 1e-10
        mass = new_mass


def test_predator_growth_rate_below_threshold(geom32):
    # mu = 0.9 < mu* = 1: leading eigenvalue +0.1, so ||v|| grows like exp(0.1 t)
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9, r=1.0)
    x = constant_state(geom32, 1.0, 0.01).as_vector()
    dt, t_end = 0.005, 1.0
    v0 = np.max(np.abs(split(x, geom32)[1]))
    for _ in range(int(round(t_end / dt))):
        x = _ImplicitSolver(geom32, p, dt).advance(x, rhs_transient(p, x, geom32))
    growth = np.max(np.abs(split(x, geom32)[1])) / v0
    assert growth == pytest.approx(np.exp(0.1 * t_end), rel=0.1)


def test_extinction_above_threshold(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.2, r=1.0)
    cfg = TransientConfig(dt=0.2, t_end=500.0, steady_tol=1e-7)
    out = run_to_steady(constant_state(geom32, 1.0, 0.05), p, cfg, geom32)
    assert out.converged
    assert out.state.v.inf_norm < 1e-6
    assert out.history.shape[1] == 5


def test_coexistence_below_threshold(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9, r=1.0)
    cfg = TransientConfig(dt=0.2, t_end=2000.0, steady_tol=1e-6)
    out = run_to_steady(constant_state(geom32, 1.0, 0.05), p, cfg, geom32)
    assert out.converged
    assert out.state.v.values.min() > 0.0


def test_logistic_relaxation_without_predation(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=0.0, mu=1.0, r=1.0)
    cfg = TransientConfig(dt=0.2, t_end=500.0, steady_tol=1e-9)
    out = run_to_steady(constant_state(geom32, 0.3, 0.0), p, cfg, geom32)
    assert out.converged
    assert np.max(np.abs(out.state.u.values - 1.0)) < 1e-6


def test_newton_steady_state_is_imex_fixed_point(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.95, r=1.0)
    coexist = newton_solve(
        constant_state(geom32, 1.0, 0.05), p, NewtonConfig(), geom32
    ).state
    res = residual_steady(p, coexist.as_vector(), geom32)
    assert np.max(np.abs(res)) <= 1e-10
    x = coexist.as_vector()
    nxt = _ImplicitSolver(geom32, p, 0.2).advance(x, rhs_transient(p, x, geom32))
    assert np.max(np.abs(nxt - x)) <= 1e-9


def test_step_rejected_for_large_dt(geom16):
    # strong predation on sparse prey drives the explicit reaction negative
    p = ModelParams(lam=1.0, m=0.0, c=1.0, b=5.0, mu=0.1, r=1.0)
    x = constant_state(geom16, 0.02, 5.0).as_vector()
    with pytest.raises(StepRejected):
        _ImplicitSolver(geom16, p, 10.0).advance(x, rhs_transient(p, x, geom16))


def test_nonnegativity_preserved_under_stable_dt(geom16):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.2, r=1.0)
    dt = 0.5 / max(p.r, p.mu, p.c * p.lam)  # documented reaction-stability bound
    rng = np.random.default_rng(13)
    u = smooth_positive(geom16.grid, rng, 0.5, 0.3, 0.0)
    v = smooth_positive(geom16.grid, rng, 0.3, 0.2, 0.0)
    x = SystemState(
        ScalarField(u.ravel(), Region.OMEGA), ScalarField(v[geom16.omega1_mask], Region.OMEGA1)
    ).as_vector()
    for _ in range(40):
        x = _ImplicitSolver(geom16, p, dt).advance(x, rhs_transient(p, x, geom16))
        u, v = split(x, geom16)
        assert u.min() >= 0.0
        assert v.min() >= 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": math.nan},
        {"dt": math.inf},
        {"t_end": math.nan},
        {"t_end": math.inf},
        {"t_end": -1.0},
        {"t_end": 0.0},
        {"steady_tol": math.nan},
        {"steady_tol": math.inf},
        {"max_steps": 0},
    ],
)
def test_transient_config_rejects_nonsense(kwargs):
    with pytest.raises(ValueError):
        TransientConfig(**kwargs)


def _spsolve_step(x, params, dt, geom):
    """Reference IMEX step: both implicit systems by spsolve on the frozen matrices."""
    u, v = split(x, geom)
    react_u, react_v = reaction_terms(params, u, v, geom, params.r)
    M_u = sp.identity(geom.n_omega) - (dt * params.d_u) * frozen_diffusion_matrix(u, geom)
    M_v = sp.identity(geom.n_omega1) - (dt * params.d_v) * geom.lap_omega1
    u_new = spla.spsolve(M_u.tocsc(), u + dt * react_u)
    v_new = spla.spsolve(M_v.tocsc(), v + dt * react_v)
    return np.concatenate([np.maximum(u_new, 0.0), np.maximum(v_new, 0.0)])


@pytest.mark.parametrize(
    "grid,refuge",
    [
        (GridSpec(12, 12), RefugeShape.empty()),
        (GridSpec(12, 12), CENTER_RECT),
        (GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2)),
    ],
    ids=["12-empty", "12-square", "14x10-disc"],
)
def test_imex_step_matches_spsolve_oracle(grid, refuge):
    """A fresh step, then a step through the lagged prey LU of the first one."""
    geom = build_geometry(grid, refuge)
    rng = np.random.default_rng(5)
    state = SystemState(
        ScalarField(smooth_positive(grid, rng, 0.8, 0.3).ravel(), Region.OMEGA),
        ScalarField(smooth_positive(grid, rng, 0.3, 0.2)[geom.omega1_mask], Region.OMEGA1),
    ).as_vector()
    dt = 0.2
    fresh = _ImplicitSolver(geom, COEXIST, dt).advance(state, rhs_transient(COEXIST, state, geom))
    ref = _spsolve_step(state, COEXIST, dt, geom)
    assert np.max(np.abs(fresh - ref)) <= 1e-12

    solver = _ImplicitSolver(geom, COEXIST, dt)
    first = solver.advance(state, rhs_transient(COEXIST, state, geom))
    lagged = solver.advance(first, rhs_transient(COEXIST, first, geom))
    ref = _spsolve_step(first, COEXIST, dt, geom)
    assert np.max(np.abs(lagged - ref)) <= 1e-12


def _base_steps(out, dt):
    """Each step of a run in base steps dt, read from its time column; every
    t must be an integer multiple of dt."""
    units = np.rint(out.history[:, 0] / dt)
    assert np.array_equal(units * dt, out.history[:, 0])
    return np.diff(units).astype(int)


def test_run_to_steady_matches_spsolve_stepping(geom32):
    """A replay: the spsolve oracle takes the run's steps, read from its time
    column, and stops as soon as its own rates meet the tolerance."""
    out = run_to_steady(constant_state(geom32, 1.0, 0.05), COEXIST, COEXIST_RUN, geom32)

    def rate(x):
        return np.max(np.abs(rhs_transient(COEXIST, x, geom32)))

    state, steps = constant_state(geom32, 1.0, 0.05).as_vector(), 0
    for n in _base_steps(out, COEXIST_RUN.dt):
        if rate(state) <= COEXIST_RUN.steady_tol:
            break
        state = _spsolve_step(state, COEXIST, n * COEXIST_RUN.dt, geom32)
        steps += 1
    assert out.converged
    assert rate(state) <= COEXIST_RUN.steady_tol
    assert out.steps == steps
    assert np.max(np.abs(out.state.as_vector() - state)) <= 1e-10


def _fixed_dt_steps(x, params, cfg, geom):
    """Steps the spsolve oracle takes at the fixed step cfg.dt to meet cfg.steady_tol."""
    steps = 0
    while np.max(np.abs(rhs_transient(params, x, geom))) > cfg.steady_tol:
        assert steps < cfg.max_steps
        x = _spsolve_step(x, params, cfg.dt, geom)
        steps += 1
    return steps


def test_ladder_backs_off_a_spurious_oscillation():
    """A step past the explicit reactions' stability bound overshoots, so the
    rate changes sign: the ladder steps back down, converges, and takes no
    more steps than fixed-dt stepping."""
    geom = build_geometry(GridSpec(12, 12), CENTER_RECT)
    cfg = TransientConfig(dt=0.65, t_end=2000.0, steady_tol=1e-8)
    out = run_to_steady(constant_state(geom, 1.0, 0.05), COEXIST, cfg, geom)
    assert out.converged
    assert out.steps <= _fixed_dt_steps(constant_state(geom, 1.0, 0.05).as_vector(),
                                        COEXIST, cfg, geom)


@pytest.mark.parametrize("r, dt, steady_tol", [(1.0, 0.7, 1e-8), (1.244, 0.1, 1e-7)],
                         ids=["r1-dt0.7", "r1.244-dt0.1"])
def test_ladder_settles_on_the_logistic_bound(r, dt, steady_tol):
    """Without predation the prey relaxes to u = 1 with error factor 1 - r*dt
    per step. A level whose factor is below -1/3 overshoots and steps down,
    one whose factor is within 1/3 of zero holds, so the ladder neither stays
    on a level where the factor is near -1 (r = 1.244: dt = 1.6 gives -0.99)
    nor on one slower than the base step (r = 1: dt = 1.4 gives -0.4 against
    0.3), and takes no more steps than fixed-dt stepping."""
    geom = build_geometry(GridSpec(12, 12), CENTER_RECT)
    logistic = ModelParams(lam=1.0, m=1.0, c=2.0, b=0.0, mu=1.0, r=r)
    cfg = TransientConfig(dt=dt, t_end=400.0, steady_tol=steady_tol)
    out = run_to_steady(constant_state(geom, 0.3, 0.0), logistic, cfg, geom)
    assert out.converged
    assert np.max(np.abs(out.state.u.values - 1.0)) < 1e-7
    assert out.steps <= _fixed_dt_steps(constant_state(geom, 0.3, 0.0).as_vector(),
                                        logistic, cfg, geom)


@pytest.mark.parametrize("refuge", [RefugeShape.empty(), CENTER_RECT], ids=["empty", "square"])
def test_enriched_run_is_not_declared_steady(refuge):
    """In the enriched regime (m*lam > 1) the rates do not settle by t = 400,
    as under fixed-dt stepping: the ladder must not manufacture convergence."""
    geom = build_geometry(GridSpec(16, 16), refuge)
    enriched = ModelParams(lam=4.0, m=2.0, c=2.0, b=1.0, mu=0.5, r=1.0)
    out = run_to_steady(constant_state(geom, 4.0, 0.2), enriched, TransientConfig(t_end=400.0),
                        geom)
    assert not out.converged


def test_coexistence_run_solver_counters(geom32, scipy_counters, monkeypatch):
    """Each ladder level factors its predator matrix once and the lagged prey
    LU keeps CG short; the prey matrix is assembled only to be factored, and
    each state's right-hand side is evaluated once."""
    calls = {"frozen_diffusion_matrix": 0, "rhs_transient": 0}
    for name in calls:
        fn = getattr(dynamics, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(dynamics, name, counted)
    out = run_to_steady(constant_state(geom32, 1.0, 0.05), COEXIST, COEXIST_RUN, geom32)
    assert out.converged
    levels = len(set(_base_steps(out, COEXIST_RUN.dt)))
    shapes = scipy_counters.splu_shapes
    predator, prey = (geom32.n_omega1,) * 2, (geom32.n_omega,) * 2
    assert shapes.count(predator) == levels
    assert levels <= shapes.count(prey) <= levels + 2
    assert len(shapes) == shapes.count(predator) + shapes.count(prey)
    assert scipy_counters.cg_iters / out.steps <= 3
    assert calls["frozen_diffusion_matrix"] == shapes.count(prey)
    assert calls["rhs_transient"] == out.steps + 1
    # one prey solve per step: the first at each level from zero, every later
    # one from the projected start, and none slow enough to refactor the
    # preconditioner
    solves = scipy_counters.cg_solves
    assert len(solves) == out.steps
    assert [x0 for x0, _ in solves].count(False) == levels
    assert max(iters for _, iters in solves) <= dynamics.REFACTOR_ITERS


def test_transient_run_leaves_the_coupled_order_unbuilt(scipy_counters):
    """The cell graph's LU, which gives the coupled order, has the prey
    matrix's shape, so only its cache shows that a transient run never asked
    for it."""
    geom = build_geometry(GridSpec(16, 16), CENTER_RECT)  # fresh: no cell graph cached
    cfg = TransientConfig(max_steps=5)
    out = run_to_steady(constant_state(geom, 1.0, 0.05), COEXIST, cfg, geom)
    assert geom not in operators._CELL_GRAPHS
    levels = len(set(_base_steps(out, cfg.dt)))
    assert scipy_counters.splu_shapes.count((geom.n_omega1,) * 2) == levels


def test_stale_history_is_harmless(scipy_counters):
    """One solver across unrelated states: the projected CG start is only a
    guess, so each step still matches the oracle; stepping one state twice
    makes the history exactly collinear, and the repeat solve starts converged."""
    grid = GridSpec(12, 12)
    geom = build_geometry(grid, CENTER_RECT)
    rng = np.random.default_rng(11)
    profile = SystemState(
        ScalarField(smooth_positive(grid, rng, 0.8, 0.3).ravel(), Region.OMEGA),
        ScalarField(smooth_positive(grid, rng, 0.3, 0.2)[geom.omega1_mask], Region.OMEGA1),
    ).as_vector()
    scaled = 3.0 * profile
    dt = 0.2
    solver = _ImplicitSolver(geom, COEXIST, dt)
    for state in (profile, constant_state(geom, 0.7, 0.2).as_vector(), scaled):
        nxt = solver.advance(state, rhs_transient(COEXIST, state, geom))
        ref = _spsolve_step(state, COEXIST, dt, geom)
        assert np.max(np.abs(nxt - ref)) <= 1e-12

    first = solver.advance(profile, rhs_transient(COEXIST, profile, geom))
    again = solver.advance(profile, rhs_transient(COEXIST, profile, geom))
    assert scipy_counters.cg_solves[-1] == (True, 0)
    assert np.isfinite(again).all()
    assert np.max(np.abs(again - first)) <= 1e-12


def test_rejected_step_is_retried_one_level_down(geom16, monkeypatch):
    """Predators far above their coexistence density: the first step of 32*dt
    overshoots into negative prey, so the ladder caps itself below that level
    and retries the step at 16*dt on the same right-hand side; a rejection at
    the base step ends the run as before."""
    rejected, calls = [], {"rhs_transient": 0}
    advance = _ImplicitSolver.advance

    def recorded(solver, x, rate):
        try:
            return advance(solver, x, rate)
        except StepRejected:
            rejected.append(solver.dt)
            raise

    def counted(*args):
        calls["rhs_transient"] += 1
        return rhs_transient(*args)

    monkeypatch.setattr(_ImplicitSolver, "advance", recorded)
    monkeypatch.setattr(dynamics, "rhs_transient", counted)
    cfg = TransientConfig(dt=0.05, t_end=400.0, steady_tol=1e-7)
    out = run_to_steady(constant_state(geom16, 0.1, 2.0), COEXIST, cfg, geom16)
    assert out.converged
    assert rejected == [pytest.approx(32 * cfg.dt)]
    assert max(_base_steps(out, cfg.dt)) == 16
    assert calls["rhs_transient"] == out.steps + 1

    predation = ModelParams(lam=1.0, m=0.0, c=1.0, b=5.0, mu=0.1, r=1.0)
    with pytest.raises(StepRejected):
        run_to_steady(constant_state(geom16, 0.02, 5.0), predation, cfg, geom16)


def test_run_ends_on_the_horizon():
    """t counts base steps, not a running sum that rounding carries past
    t_end, and the last steps shrink to fit: the run stops on the last
    multiple of dt within t_end (212.8 = 304 * 0.7)."""
    geom = build_geometry(GridSpec(12, 12), CENTER_RECT)
    cfg = TransientConfig(dt=0.7, t_end=212.8, steady_tol=1e-300)
    out = run_to_steady(constant_state(geom, 1.0, 0.05), COEXIST, cfg, geom)
    assert not out.converged
    assert _base_steps(out, cfg.dt).sum() == 304
    assert out.t_final <= cfg.t_end
    assert out.history[-1, 0] == out.t_final


def test_slow_prey_solve_refactors_the_preconditioner(geom16, scipy_counters, monkeypatch):
    """With a zero iteration budget every solve is slow, so every next step refactors."""
    monkeypatch.setattr(dynamics, "REFACTOR_ITERS", 0)
    solver = _ImplicitSolver(geom16, COEXIST, 0.2)
    state = constant_state(geom16, 0.9, 0.1).as_vector()
    for _ in range(3):
        nxt = solver.advance(state, rhs_transient(COEXIST, state, geom16))
        ref = _spsolve_step(state, COEXIST, 0.2, geom16)
        assert np.max(np.abs(nxt - ref)) <= 1e-12
        state = nxt
    assert scipy_counters.splu_shapes.count((geom16.n_omega, geom16.n_omega)) == 3


def test_lu_failure_is_a_linear_solve_failure(geom16, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(LinearSolveFailure, match="predator"):
        _ImplicitSolver(geom16, COEXIST, 0.2)
