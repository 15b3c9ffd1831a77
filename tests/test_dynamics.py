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
    nonlinear_diffusion,
    reaction_terms,
    residual_steady,
    split,
)
from refugia.steady import NewtonConfig, newton_solve

COEXIST = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
COEXIST_RUN = TransientConfig(dt=0.2, t_end=2000.0, steady_tol=1e-6)


def test_semitrivial_is_fixed_point(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.2)
    x = constant_state(geom32, 1.0, 0.0).as_vector()
    nxt = _ImplicitSolver(geom32, 0.1).advance(x, residual_steady(p, x, geom32))
    assert np.max(np.abs(nxt - x)) <= 1e-10


def test_pure_diffusion_conserves_mass(geom32):
    # advance takes its rate as an argument: here the pure prey diffusion
    rng = np.random.default_rng(7)
    x = SystemState(
        ScalarField(smooth_positive(geom32.grid, rng, base=1.2, wobble=0.3).ravel(), Region.OMEGA),
        ScalarField(np.zeros(geom32.n_omega1), Region.OMEGA1),
    ).as_vector()
    h2 = geom32.grid.hx * geom32.grid.hy
    mass = split(x, geom32)[0].sum() * h2
    for _ in range(5):
        rate = np.concatenate([nonlinear_diffusion(split(x, geom32)[0], geom32),
                               np.zeros(geom32.n_omega1)])
        x = _ImplicitSolver(geom32, 0.2).advance(x, rate)
        new_mass = split(x, geom32)[0].sum() * h2
        assert abs(new_mass - mass) <= 1e-10
        mass = new_mass


def test_predator_growth_rate_below_threshold(geom32):
    # mu = 0.9 < mu* = 1: leading eigenvalue +0.1, so ||v|| grows like exp(0.1 t)
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    x = constant_state(geom32, 1.0, 0.01).as_vector()
    dt, t_end = 0.005, 1.0
    v0 = np.max(np.abs(split(x, geom32)[1]))
    for _ in range(int(round(t_end / dt))):
        x = _ImplicitSolver(geom32, dt).advance(x, residual_steady(p, x, geom32))
    growth = np.max(np.abs(split(x, geom32)[1])) / v0
    assert growth == pytest.approx(np.exp(0.1 * t_end), rel=0.1)


def test_extinction_above_threshold(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.2)
    cfg = TransientConfig(dt=0.2, t_end=500.0, steady_tol=1e-7)
    out = run_to_steady(constant_state(geom32, 1.0, 0.05).as_vector(), p, cfg, geom32)
    assert out.converged
    assert np.max(np.abs(split(out.x, geom32)[1])) < 1e-6
    assert out.history.shape[1] == 5


def test_coexistence_below_threshold(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    cfg = TransientConfig(dt=0.2, t_end=2000.0, steady_tol=1e-6)
    out = run_to_steady(constant_state(geom32, 1.0, 0.05).as_vector(), p, cfg, geom32)
    assert out.converged
    assert split(out.x, geom32)[1].min() > 0.0


def test_logistic_relaxation_without_predation(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=0.0, mu=1.0)
    cfg = TransientConfig(dt=0.2, t_end=500.0, steady_tol=1e-9)
    out = run_to_steady(constant_state(geom32, 0.3, 0.0).as_vector(), p, cfg, geom32)
    assert out.converged
    assert np.max(np.abs(split(out.x, geom32)[0] - 1.0)) < 1e-6


def test_newton_steady_state_is_imex_fixed_point(geom32):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.95)
    coexist = newton_solve(
        constant_state(geom32, 1.0, 0.05), p, NewtonConfig(), geom32
    ).state
    res = residual_steady(p, coexist.as_vector(), geom32)
    assert np.max(np.abs(res)) <= 1e-10
    x = coexist.as_vector()
    nxt = _ImplicitSolver(geom32, 0.2).advance(x, residual_steady(p, x, geom32))
    assert np.max(np.abs(nxt - x)) <= 1e-9


def test_step_rejected_for_large_dt(geom16):
    # strong predation on sparse prey drives the explicit reaction negative
    p = ModelParams(lam=1.0, m=0.0, c=1.0, b=5.0, mu=0.1)
    x = constant_state(geom16, 0.02, 5.0).as_vector()
    with pytest.raises(StepRejected):
        _ImplicitSolver(geom16, 10.0).advance(x, residual_steady(p, x, geom16))


def test_nonnegativity_preserved_under_stable_dt(geom16):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.2)
    dt = 0.5 / max(p.lam, p.mu, p.c * p.lam)  # documented reaction-stability bound
    rng = np.random.default_rng(13)
    u = smooth_positive(geom16.grid, rng, 0.5, 0.3, 0.0)
    v = smooth_positive(geom16.grid, rng, 0.3, 0.2, 0.0)
    x = SystemState(
        ScalarField(u.ravel(), Region.OMEGA), ScalarField(v[geom16.omega1_mask], Region.OMEGA1)
    ).as_vector()
    for _ in range(40):
        x = _ImplicitSolver(geom16, dt).advance(x, residual_steady(p, x, geom16))
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
        {"dt": 0.0},
    ],
)
def test_transient_config_rejects_nonsense(kwargs):
    with pytest.raises(ValueError):
        TransientConfig(**kwargs)


def _spsolve_step(x, params, dt, geom):
    """Reference IMEX step: both implicit systems by spsolve on the frozen matrices."""
    u, v = split(x, geom)
    react_u, react_v = reaction_terms(params, u, v, geom)
    M_u = sp.identity(geom.n_omega) - dt * frozen_diffusion_matrix(u, geom)
    M_v = sp.identity(geom.n_omega1) - dt * geom.lap_omega1
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
    fresh = _ImplicitSolver(geom, dt).advance(state, residual_steady(COEXIST, state, geom))
    ref = _spsolve_step(state, COEXIST, dt, geom)
    assert np.max(np.abs(fresh - ref)) <= 1e-12

    solver = _ImplicitSolver(geom, dt)
    first = solver.advance(state, residual_steady(COEXIST, state, geom))
    lagged = solver.advance(first, residual_steady(COEXIST, first, geom))
    ref = _spsolve_step(first, COEXIST, dt, geom)
    assert np.max(np.abs(lagged - ref)) <= 1e-12


def _base_steps(out, cfg):
    """Each step of a run in base steps cfg.dt, read from its time column;
    every t must be an integer multiple of dt, or t_end at the horizon."""
    units = np.rint(out.history[:, 0] / cfg.dt)
    assert np.array_equal(np.minimum(units * cfg.dt, cfg.t_end), out.history[:, 0])
    return np.diff(units).astype(int)


def test_run_to_steady_matches_spsolve_stepping(geom32):
    """A replay: the spsolve oracle takes the run's steps, read from its time
    column, and stops as soon as its own rates meet the tolerance."""
    start = constant_state(geom32, 1.0, 0.05).as_vector()
    out = run_to_steady(start, COEXIST, COEXIST_RUN, geom32)

    def rate(x):
        return np.max(np.abs(residual_steady(COEXIST, x, geom32)))

    state, steps = start, 0
    for n in _base_steps(out, COEXIST_RUN):
        if rate(state) <= COEXIST_RUN.steady_tol:
            break
        state = _spsolve_step(state, COEXIST, n * COEXIST_RUN.dt, geom32)
        steps += 1
    assert out.converged
    assert rate(state) <= COEXIST_RUN.steady_tol
    assert out.steps == steps
    assert np.max(np.abs(out.x - state)) <= 1e-10


def _fixed_dt_steps(x, params, cfg, geom):
    """Steps the spsolve oracle takes at the fixed step cfg.dt to meet cfg.steady_tol."""
    steps = 0
    while np.max(np.abs(residual_steady(params, x, geom))) > cfg.steady_tol:
        assert steps < cfg.t_end / cfg.dt
        x = _spsolve_step(x, params, cfg.dt, geom)
        steps += 1
    return steps


def test_ladder_backs_off_a_spurious_oscillation():
    """A step past the explicit reactions' stability bound overshoots, so the
    rate changes sign: the ladder steps back down, converges, and takes no
    more steps than fixed-dt stepping."""
    geom = build_geometry(GridSpec(12, 12), CENTER_RECT)
    cfg = TransientConfig(dt=0.65, t_end=2000.0, steady_tol=1e-8)
    out = run_to_steady(constant_state(geom, 1.0, 0.05).as_vector(), COEXIST, cfg, geom)
    assert out.converged
    assert out.steps <= _fixed_dt_steps(constant_state(geom, 1.0, 0.05).as_vector(),
                                        COEXIST, cfg, geom)


@pytest.mark.parametrize("r, dt, steady_tol", [(1.0, 0.7, 1e-8), (1.244, 0.1, 1e-7)],
                         ids=["r1-dt0.7", "r1.244-dt0.1"])
def test_ladder_settles_on_the_logistic_bound(r, dt, steady_tol):
    """Without predation a constant prey grows logistically at rate r = lam
    and relaxes to u = lam with error factor 1 - r*dt per step. A level whose
    factor is below -1/3 overshoots and steps down, one whose factor is within
    1/3 of zero holds, so the ladder neither stays on a level where the factor
    is near -1 (r = 1.244: dt = 1.6 gives -0.99) nor on one slower than the
    base step (r = 1: dt = 1.4 gives -0.4 against 0.3), and takes no more
    steps than fixed-dt stepping."""
    geom = build_geometry(GridSpec(12, 12), CENTER_RECT)
    logistic = ModelParams(lam=r, m=1.0, c=2.0, b=0.0, mu=1.0)
    cfg = TransientConfig(dt=dt, t_end=400.0, steady_tol=steady_tol)
    out = run_to_steady(constant_state(geom, 0.3 * r, 0.0).as_vector(), logistic, cfg, geom)
    assert out.converged
    assert np.max(np.abs(split(out.x, geom)[0] - r)) < 1e-7
    assert out.steps <= _fixed_dt_steps(constant_state(geom, 0.3 * r, 0.0).as_vector(),
                                        logistic, cfg, geom)


#: the enriched regime (m*lam = 8 > 1) on a 16^2 grid of the square of side 1/2,
#: bare or with the centred square refuge; its runs take dt = 0.025 and steady_tol = 4e-7
ENRICHED = ModelParams(lam=4.0, m=2.0, c=8.0, b=4.0, mu=2.0)
ENRICHED_GRID = GridSpec(16, 16, lx=0.5, ly=0.5)
ENRICHED_REFUGE = RefugeShape.rectangle((0.25, 0.25), (0.0625, 0.0625))


@pytest.mark.parametrize("refuge", [RefugeShape.empty(), ENRICHED_REFUGE],
                         ids=["empty", "square"])
def test_enriched_run_is_not_declared_steady(refuge):
    """In the enriched regime the rates do not settle by t = 100 (3,938
    steps on either habitat), as under fixed-dt stepping: the ladder must not
    manufacture convergence."""
    geom = build_geometry(ENRICHED_GRID, refuge)
    cfg = TransientConfig(dt=0.025, t_end=100.0, steady_tol=4e-7)
    out = run_to_steady(constant_state(geom, 4.0, 0.2).as_vector(), ENRICHED, cfg, geom)
    assert not out.converged


@pytest.mark.xfail(strict=True, raises=(StepRejected, AssertionError),
                   reason="the ladder loses runs that fixed dt converges (ROADMAP item 10)")
@pytest.mark.parametrize("params, start, dt", [
    (ModelParams(lam=2.588, m=0.5776, c=2.9342, b=3.1643, mu=2.4283), (2.0316, 0.1383), 0.5),
    (ModelParams(lam=0.8305, m=1.3902, c=1.5746, b=1.3944, mu=0.3839), (0.986, 0.3753), 0.2),
], ids=["rejected-at-base", "slow-level"])
def test_ladder_converges_where_fixed_dt_does(params, start, dt):
    """Fixed dt converges on both spirals, in 112 and 693 steps. The ladder
    climbs to dt = 4 on the first, where a step at dt = 2 and one at dt = 4
    multiply the rate 70-fold, and the next step is rejected down to the base
    step (StepRejected). On the second it holds dt = 1.6 for 221 of its 239
    steps, which damps the spiral too slowly, and reaches t = 400 with rates
    of 3.7e-4; with the climb bound at 1/2 instead of 1/3 it converges."""
    geom = build_geometry(GridSpec(12, 12), CENTER_RECT)
    out = run_to_steady(constant_state(geom, *start).as_vector(), params,
                        TransientConfig(dt=dt), geom)
    assert out.converged


def test_coexistence_run_solver_counters(geom32, scipy_counters, monkeypatch):
    """Each ladder level factors its predator matrix once and the lagged prey
    LU keeps CG short; the prey matrix is assembled only to be factored, and
    each state's right-hand side is evaluated once."""
    calls = {"frozen_diffusion_matrix": 0, "residual_steady": 0}
    for name in calls:
        fn = getattr(dynamics, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(dynamics, name, counted)
    start = constant_state(geom32, 1.0, 0.05).as_vector()
    out = run_to_steady(start, COEXIST, COEXIST_RUN, geom32)
    assert out.converged
    levels = len(set(_base_steps(out, COEXIST_RUN)))
    shapes = scipy_counters.splu_shapes
    predator, prey = (geom32.n_omega1,) * 2, (geom32.n_omega,) * 2
    assert shapes.count(predator) == levels
    assert levels <= shapes.count(prey) <= levels + 2
    assert len(shapes) == shapes.count(predator) + shapes.count(prey)
    assert scipy_counters.cg_iters / out.steps <= 3
    assert calls["frozen_diffusion_matrix"] == shapes.count(prey)
    assert calls["residual_steady"] == out.steps + 1
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
    cfg = TransientConfig(t_end=0.5)
    out = run_to_steady(constant_state(geom, 1.0, 0.05).as_vector(), COEXIST, cfg, geom)
    assert geom not in operators._CELL_GRAPHS
    levels = len(set(_base_steps(out, cfg)))
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
    solver = _ImplicitSolver(geom, dt)
    for state in (profile, constant_state(geom, 0.7, 0.2).as_vector(), scaled):
        nxt = solver.advance(state, residual_steady(COEXIST, state, geom))
        ref = _spsolve_step(state, COEXIST, dt, geom)
        assert np.max(np.abs(nxt - ref)) <= 1e-12

    first = solver.advance(profile, residual_steady(COEXIST, profile, geom))
    again = solver.advance(profile, residual_steady(COEXIST, profile, geom))
    assert scipy_counters.cg_solves[-1] == (True, 0)
    assert np.isfinite(again).all()
    assert np.max(np.abs(again - first)) <= 1e-12


def test_failed_cg_is_a_linear_solve_failure(geom16, monkeypatch):
    # CG stubbed to report a breakdown on the first prey solve
    monkeypatch.setattr(spla, "cg", lambda A, b, **kwargs: (np.zeros_like(b), -10))
    x = constant_state(geom16, 0.5, 0.5).as_vector()
    with pytest.raises(LinearSolveFailure, match="info=-10"):
        run_to_steady(x, COEXIST, COEXIST_RUN, geom16)


def test_rejected_step_is_retried_one_level_down(geom16, monkeypatch):
    """Predators far above their coexistence density: the first step of 32*dt
    overshoots into negative prey, so the ladder caps itself below that level
    and retries the step at 16*dt on the same right-hand side; a rejection at
    the base step ends the run as before."""
    rejected, calls = [], {"residual_steady": 0}
    advance = _ImplicitSolver.advance

    def recorded(solver, x, rate):
        try:
            return advance(solver, x, rate)
        except StepRejected:
            rejected.append(solver.dt)
            raise

    def counted(*args):
        calls["residual_steady"] += 1
        return residual_steady(*args)

    monkeypatch.setattr(_ImplicitSolver, "advance", recorded)
    monkeypatch.setattr(dynamics, "residual_steady", counted)
    cfg = TransientConfig(dt=0.05, t_end=400.0, steady_tol=1e-7)
    out = run_to_steady(constant_state(geom16, 0.1, 2.0).as_vector(), COEXIST, cfg, geom16)
    assert out.converged
    assert rejected == [pytest.approx(32 * cfg.dt)]
    assert max(_base_steps(out, cfg)) == 16
    assert calls["residual_steady"] == out.steps + 1

    predation = ModelParams(lam=1.0, m=0.0, c=1.0, b=5.0, mu=0.1)
    with pytest.raises(StepRejected):
        run_to_steady(constant_state(geom16, 0.02, 5.0).as_vector(), predation, cfg, geom16)


def test_run_ends_on_the_horizon():
    """t counts base steps, not a running sum that rounding carries past
    t_end, and the last steps shrink to fit: the run stops on the last
    multiple of dt within t_end (212.8 = 304 * 0.7)."""
    geom = build_geometry(GridSpec(12, 12), CENTER_RECT)
    cfg = TransientConfig(dt=0.7, t_end=212.8, steady_tol=1e-300)
    out = run_to_steady(constant_state(geom, 1.0, 0.05).as_vector(), COEXIST, cfg, geom)
    assert not out.converged
    assert _base_steps(out, cfg).sum() == 304
    assert out.t_final <= cfg.t_end
    assert out.history[-1, 0] == out.t_final


def test_a_horizon_that_rounds_below_its_step_count_is_reached():
    """0.3 / 0.1 evaluates to 2.9999999999999996 and 3 * 0.1 to
    0.30000000000000004: the run still takes its three base steps, and its
    last t reads t_end = 0.3, not one ulp past it."""
    geom = build_geometry(GridSpec(12, 12), CENTER_RECT)
    cfg = TransientConfig(dt=0.1, t_end=0.3, steady_tol=1e-300)
    out = run_to_steady(constant_state(geom, 1.0, 0.05).as_vector(), COEXIST, cfg, geom)
    assert _base_steps(out, cfg).sum() == 3
    assert out.t_final == cfg.t_end
    assert out.history[-1, 0] == out.t_final


def test_slow_prey_solve_refactors_the_preconditioner(geom16, scipy_counters, monkeypatch):
    """With a zero iteration budget every solve is slow, so every next step refactors."""
    monkeypatch.setattr(dynamics, "REFACTOR_ITERS", 0)
    solver = _ImplicitSolver(geom16, 0.2)
    state = constant_state(geom16, 0.9, 0.1).as_vector()
    for _ in range(3):
        nxt = solver.advance(state, residual_steady(COEXIST, state, geom16))
        ref = _spsolve_step(state, COEXIST, 0.2, geom16)
        assert np.max(np.abs(nxt - ref)) <= 1e-12
        state = nxt
    assert scipy_counters.splu_shapes.count((geom16.n_omega, geom16.n_omega)) == 3


def test_preconditioner_refresh_keeps_an_enriched_run_cheap(scipy_counters):
    """The enriched square's first 100 steps, to t = 4.05: refactoring the
    lagged prey LU after each solve of more than REFACTOR_ITERS iterations
    keeps CG at 729 iterations with 5 prey LUs; never refactoring it takes
    2,166 with 3."""
    geom = build_geometry(ENRICHED_GRID, ENRICHED_REFUGE)
    cfg = TransientConfig(dt=0.025, t_end=4.05, steady_tol=4e-7)
    out = run_to_steady(constant_state(geom, 4.0, 0.2).as_vector(), ENRICHED, cfg, geom)
    levels = len(set(_base_steps(out, cfg)))
    assert scipy_counters.splu_shapes.count((geom.n_omega,) * 2) > levels
    assert scipy_counters.cg_iters <= 10 * out.steps


def test_stall_cap_lets_a_weakly_damped_spiral_converge():
    """A weakly damped spiral that the ladder's upper levels stop damping:
    the stall cap walks the ladder back down, and the run converges in
    1,981 steps at t = 199.7. Without the cap it is unconverged at t = 400
    after 297 steps."""
    geom = build_geometry(GridSpec(16, 16), CENTER_RECT)
    spiral = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.5)
    out = run_to_steady(constant_state(geom, 1.0, 0.05).as_vector(), spiral,
                        TransientConfig(), geom)
    assert out.converged


def test_lu_failure_is_a_linear_solve_failure(geom16, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(LinearSolveFailure, match="predator"):
        _ImplicitSolver(geom16, 0.2)
