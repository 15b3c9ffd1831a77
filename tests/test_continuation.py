import dataclasses

import numpy as np
import pytest

from conftest import CENTER_RECT, branch_slope_analytic, no_refuge_branch_oracle
from refugia.continuation import (
    Branch,
    BranchLabel,
    RegionOfApplicabilityWarning,
    amplitude_of,
    branch_switch,
    continue_branch,
    detect_transcritical,
    solve_at_amplitude,
    trace_semitrivial,
    verify_sign_relation,
)
from refugia.errors import (
    ContinuationStalled,
    NoConvergence,
    NoCrossing,
    RefugiaError,
    SingularJacobian,
)
from refugia.fields import SystemState, constant_state
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import (
    ModelParams,
    assemble_jacobian,
    coupled_order,
    factor,
    residual_mu_derivative,
    residual_steady,
    split,
)
from refugia.spectral import StabilityFlag, leading_eigenvalue
from refugia.steady import NewtonConfig, newton_solve


@pytest.fixture(scope="module")
def params():
    return ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)


@pytest.fixture(scope="module")
def semi(params, geom32):
    return trace_semitrivial(params, (0.8, 1.2), 9, geom32)


@pytest.fixture(scope="module")
def mu_star(semi):
    return detect_transcritical(semi)


@pytest.fixture(scope="module")
def switch(mu_star, params, geom32):
    """branch_switch's point and its LU of J."""
    return branch_switch(mu_star, params, geom32, s0=0.05)


@pytest.fixture(scope="module")
def switch_point(switch):
    return switch[0]


@pytest.fixture(scope="module")
def nontrivial(switch, mu_star, params, geom32):
    point, lu = switch
    base = constant_state(geom32, params.lam, 0.0).as_vector()
    direction = (point.x - base, point.mu - mu_star)
    return continue_branch(
        point, direction, n_steps=14, ds=0.025, params=params, geom=geom32, lu=lu
    )


def _switch_direction(point, mu_star, params, geom):
    """continue_branch's initial tangent guess from a branch_switch point, as the runner makes it."""
    base = constant_state(geom, params.lam, 0.0).as_vector()
    return point.x - base, point.mu - mu_star


def test_semitrivial_trace_gammas(semi):
    expected = 1.0 - semi.mus()
    np.testing.assert_allclose(semi.gammas(), expected, rtol=0, atol=1e-8)
    assert all(p.amplitude == 0.0 for p in semi.points)
    flags = [p.flag for p in semi.points]
    assert flags[0] is StabilityFlag.UNSTABLE  # mu = 0.8
    assert flags[-1] is StabilityFlag.STABLE  # mu = 1.2
    assert StabilityFlag.MARGINAL in flags  # the mu = 1.0 point


def test_semitrivial_blocks_match_full_jacobian(geom16):
    # gamma(mu) = max(g_u, g_v0 - mu) from the two diagonal blocks agrees with
    # the full-Jacobian solve on both sides of the cap at -lam; on the disc the
    # u-block differs from -lam*(I - lap_omega), whose LU its solve runs on,
    # by rounding
    disc = build_geometry(GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2))
    for geom in (geom16, disc):
        for lam in (1.0, 1.7):
            p = ModelParams(lam=lam, m=1.0, c=2.0, b=1.0, mu=1.0)
            branch = trace_semitrivial(p, (0.5, 3.5), 6, geom)
            assert branch.blocks is not None
            x = constant_state(geom, p.lam, 0.0).as_vector()
            for point in branch.points:
                ep = leading_eigenvalue(assemble_jacobian(p.with_mu(point.mu), x, geom))
                assert point.gamma == pytest.approx(ep.value, abs=1e-10)
                assert point.eigen_residual <= 1e-10
                assert not point.complex_pair


def test_detect_transcritical_solves_no_eigenproblem(params, geom16, monkeypatch):
    import refugia.continuation as cont

    # mu* = 1 falls strictly between samples, and the crossing still comes
    # in closed form, g_v0, from the blocks the branch carries
    branch = trace_semitrivial(params, (0.805, 1.205), 9, geom16)

    def forbidden(J, *args, **kwargs):
        raise AssertionError("detect_transcritical must reuse the branch's block pairs")

    monkeypatch.setattr(cont, "leading_eigenvalue", forbidden)
    assert detect_transcritical(branch) == pytest.approx(1.0, abs=1e-9)


def test_semitrivial_single_point(params, geom16):
    branch = trace_semitrivial(params, (5.0, 5.0), 1, geom16)
    assert len(branch.points) == 1
    assert branch.points[0].gamma == pytest.approx(-1.0, abs=1e-8)  # capped at -lam
    assert branch.points[0].flag is StabilityFlag.STABLE


@pytest.mark.parametrize(
    "lam,m,c,expected",
    [(1.0, 1.0, 2.0, 1.0), (2.0, 1.0, 3.0, 2.0), (0.5, 2.0, 4.0, 1.0)],
)
def test_detect_transcritical_analytic(lam, m, c, expected, geom16):
    p = ModelParams(lam=lam, m=m, c=c, b=1.0, mu=expected)
    branch = trace_semitrivial(p, (0.8 * expected, 1.2 * expected), 6, geom16)
    assert detect_transcritical(branch) == pytest.approx(expected, abs=1e-9)


def test_detect_no_crossing(params, geom16):
    branch = trace_semitrivial(params, (2.0, 3.0), 4, geom16)
    with pytest.raises(NoCrossing):
        detect_transcritical(branch)


@pytest.mark.parametrize("call,message", [
    (lambda p, g, start: trace_semitrivial(p, (0.0, 1.0), 3, g), "mu_range"),
    (lambda p, g, start: trace_semitrivial(p, (1.0, 1.0), 3, g), "mu_range"),
    (lambda p, g, start: trace_semitrivial(p, (0.8, 1.2), 0, g), "n_points"),
    (lambda p, g, start: detect_transcritical(Branch(BranchLabel.NONTRIVIAL, [start])),
     "trace_semitrivial"),
    (lambda p, g, start: continue_branch(start, (np.zeros(g.n_unknowns), 0.0), 1, 0.02, p, g),
     "direction must be nonzero"),
], ids=["mu-range", "one-mu-several-points", "no-points", "coexistence-branch", "zero-direction"])
def test_continuation_rejects_bad_arguments(call, message, params, geom32, switch_point):
    with pytest.raises(ValueError, match=message):
        call(params, geom32, switch_point)


def test_branch_switch_amplitude_tracks_s0(switch_point, mu_star):
    assert switch_point.amplitude == pytest.approx(0.05, rel=0.2)
    assert switch_point.mu < mu_star
    assert switch_point.flag is StabilityFlag.STABLE


def test_branch_switch_falls_back_for_tiny_s0(mu_star, params, geom32):
    # the fixed-mu Newton collapses onto (lam, 0) here; the amplitude-pinned
    # solve at s0 takes over
    point, lu = branch_switch(mu_star, params, geom32, s0=0.002)
    assert point.amplitude == pytest.approx(0.002, rel=1e-9)
    assert point.mu < mu_star
    assert np.all(split(point.x, geom32)[1] > 0)
    # the pinned point comes with its LU of J, continue_branch's first chord
    J = assemble_jacobian(params.with_mu(point.mu), point.x, geom32)
    r = np.random.default_rng(0).normal(size=J.shape[0])
    assert np.allclose(lu.solve(J @ r), r, rtol=0.0, atol=1e-10)


def test_branch_switch_keeps_a_point_between_the_collapse_bounds(mu_star, params, geom32,
                                                                 scipy_counters):
    # at s0 = 0.1 the fixed-mu Newton lands on the branch at amplitude 0.042,
    # between s0/10, below which it counts as collapsed, and s0/2: the switch
    # keeps that point, and costs the Newton's 4 LUs and the point's one,
    # where the amplitude-pinned fallback would add its own
    point, _ = branch_switch(mu_star, params, geom32, s0=0.1)
    assert 0.01 < point.amplitude < 0.05
    assert point.mu == pytest.approx(0.99 * mu_star, rel=1e-15)
    assert scipy_counters.splu_shapes.count((geom32.n_unknowns,) * 2) == 5


def test_branch_switch_survives_a_flat_branch():
    # with lam = 4, m = 2 the branch is flat in mu, and the Newton at the
    # fixed mu* - 0.01*mu* lands on the predator-free state for every s0
    p = ModelParams(lam=4.0, m=2.0, c=2.0, b=1.0, mu=8.0 / 9.0)
    geom = build_geometry(GridSpec(16, 16), RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125)))
    point, _ = branch_switch(8.0 / 9.0, p, geom, s0=0.05)
    assert point.amplitude == pytest.approx(0.05, rel=1e-9)
    assert np.all(split(point.x, geom)[1] > 0)
    assert point.residual_norm <= NewtonConfig().tol_residual


def test_branch_switch_rejects_bad_s0(mu_star, params, geom32):
    with pytest.raises(ValueError):
        branch_switch(mu_star, params, geom32, s0=0.5)  # > 0.1 * lam
    with pytest.raises(ValueError):
        branch_switch(mu_star, params, geom32, s0=0.0)


def test_branch_switch_deviation_aligns_with_kernel(mu_star, params, geom32):
    from refugia.steady import solve_kernel_function

    # at s0 = 0.02 the fixed mu offset overshoots the branch amplitude, so
    # the point comes from the amplitude-pinned fallback
    point, _ = branch_switch(mu_star, params, geom32, s0=0.02)
    kt = solve_kernel_function(params, geom32)
    dev_u = (params.lam - split(point.x, geom32)[0]) / point.amplitude
    cos = dev_u @ kt.alpha / (
        np.linalg.norm(dev_u) * np.linalg.norm(kt.alpha)
    )
    assert cos >= 0.99


def test_branch_intersection_limit(mu_star, params, geom32):
    # sampling the branch at shrinking amplitudes: state -> (lam, 0), mu -> mu*
    u_devs, mu_gaps = [], []
    for a in (0.08, 0.04, 0.02):
        point, _ = solve_at_amplitude(params, geom32, a, mu_star)
        u_devs.append(np.max(np.abs(split(point.x, geom32)[0] - params.lam)))
        mu_gaps.append(abs(point.mu - mu_star))
    assert u_devs[0] > u_devs[1] > u_devs[2]
    assert mu_gaps[0] > mu_gaps[1] > mu_gaps[2]


def test_continue_branch_mu_decreases(nontrivial, mu_star):
    mus = nontrivial.mus()
    assert np.all(np.diff(mus[:11]) < 0)
    assert np.all(mus < mu_star)
    amps = nontrivial.amplitudes()
    assert np.all(np.diff(amps) > 0)
    assert len(nontrivial.points) == 15


def test_continue_branch_points_resolve_at_fixed_mu(nontrivial, params, geom32):
    cfg = NewtonConfig()
    for point in (nontrivial.points[3], nontrivial.points[-1]):
        start = SystemState.from_vector(point.x, geom32.n_omega)
        refined = newton_solve(start, params.with_mu(point.mu), cfg, geom32)
        gap = np.max(np.abs(refined.state.as_vector() - point.x))
        assert gap <= 1e-8


def test_continue_branch_residual_contract(nontrivial, params, geom32):
    for point in nontrivial.points[1:]:
        res = residual_steady(
            params.with_mu(point.mu), point.x, geom32
        )
        assert np.max(np.abs(res)) <= 1e-10


def test_continue_semitrivial_along_mu(params, geom32):
    start = trace_semitrivial(params, (1.1, 1.1), 1, geom32).points[0]
    branch = continue_branch(
        start,
        (np.zeros(geom32.n_unknowns), 1.0),
        n_steps=5,
        ds=0.05,
        params=params,
        geom=geom32,
    )
    target = constant_state(geom32, params.lam, 0.0).as_vector()
    for point in branch.points:
        assert np.max(np.abs(point.x - target)) <= 1e-10
    np.testing.assert_allclose(np.diff(branch.mus()), 0.05, atol=1e-9)


def test_continuation_stalls_on_impossible_tolerance(
    switch_point, mu_star, params, geom32
):
    # a residual floor below machine level cannot be met on nontrivial states,
    # and the arclength constraint rules out collapsing to the exact-zero
    # semitrivial residual, so the step halves down to its floor and stalls
    impossible = NewtonConfig(tol_residual=1e-16, max_iter=6)
    base = constant_state(geom32, params.lam, 0.0).as_vector()
    direction = (switch_point.x - base, switch_point.mu - mu_star)
    with pytest.raises(ContinuationStalled):
        continue_branch(
            switch_point,
            direction,
            n_steps=2,
            ds=0.02,
            params=params,
            geom=geom32,
            newton_cfg=impossible,
        )


def test_amplitude_cap_stops_early(switch_point, mu_star, params, geom32):
    base = constant_state(geom32, params.lam, 0.0).as_vector()
    direction = (switch_point.x - base, switch_point.mu - mu_star)
    branch = continue_branch(
        switch_point, direction, n_steps=40, ds=0.05,
        params=params, geom=geom32, amplitude_cap=0.2,
    )
    assert branch.amplitudes()[-1] >= 0.2
    assert len(branch.points) < 41


def test_solve_at_amplitude_contract(mu_star, params, geom32):
    point, _ = solve_at_amplitude(params, geom32, 0.05, mu_star)
    assert point.amplitude == pytest.approx(0.05, abs=1e-12)
    assert point.mu < mu_star
    assert point.residual_norm <= 1e-10


def test_pinned_sweep_past_the_fold_raises_no_convergence():
    # enriched parameters without a refuge: the pinned sweep reaches the
    # complex pair -0.2 +/- 0.53i at amplitude 10; at 10.5, past the amplitude
    # fold, the corrector drives mu below zero, which is a NoConvergence
    p = ModelParams(lam=4.0, m=2.0, c=2.0, b=1.0, mu=8.0 / 9.0)
    geom = build_geometry(GridSpec(12, 12), RefugeShape.empty())
    mu, x = p.mu, None
    for amplitude in np.linspace(0.5, 10.0, 20):
        point, _ = solve_at_amplitude(p, geom, float(amplitude), mu, x_guess=x)
        mu, x = point.mu, point.x
    assert point.complex_pair
    with pytest.raises(NoConvergence, match="is negative") as info:
        solve_at_amplitude(p, geom, 10.5, mu, x_guess=x)
    assert isinstance(info.value, RefugiaError)


def test_stalled_continuation_carries_its_accepted_points():
    # enriched parameters without a refuge: past the amplitude fold the branch
    # runs into mu = 0, where the step halves to its floor; the error keeps
    # the 122 accepted steps and names the last mu
    p = ModelParams(lam=4.0, m=2.0, c=2.0, b=1.0, mu=8.0 / 9.0)
    geom = build_geometry(GridSpec(12, 12), RefugeShape.empty())
    start, _ = solve_at_amplitude(p, geom, 0.2, p.mu)
    base = constant_state(geom, p.lam, 0.0).as_vector()
    direction = (start.x - base, start.mu - p.mu)
    with pytest.raises(ContinuationStalled, match="after 122 accepted steps") as info:
        continue_branch(start, direction, 150, 0.1, p, geom)
    branch = info.value.branch
    assert branch.label is BranchLabel.NONTRIVIAL
    assert len(branch.points) == 123 and branch.points[0] is start
    assert np.all(branch.mus() > 0)
    assert f"the last at mu = {branch.mus()[-1]:.6g}" in str(info.value)


def test_continue_branch_keeps_mu_positive(params, geom16):
    # walking the predator-free line down in mu: steps that would end at
    # mu < 0 fail in the corrector and halve, until the step floor stalls
    start = trace_semitrivial(params, (0.1, 0.1), 1, geom16).points[0]
    with pytest.raises(ContinuationStalled):
        continue_branch(
            start,
            (np.zeros(geom16.n_unknowns), -1.0),
            n_steps=20,
            ds=0.05,
            params=params,
            geom=geom16,
        )


def test_continue_branch_rejects_a_step_at_the_constraint_tolerance(switch, mu_star, params,
                                                                   geom32):
    # below MIN_DS_FACTOR * CONSTRAINT_TOL, an absolute floor, a
    # halved step could no longer tell a secant's orientation from rounding,
    # so the branch stalls at its start; a step of 1e-7 lies far above that
    # floor and is taken
    point, lu = switch
    direction = _switch_direction(point, mu_star, params, geom32)
    for ds in (1e-12, 0.0, -0.025, float("nan")):
        with pytest.raises(ContinuationStalled, match="constraint tolerance") as stalled:
            continue_branch(point, direction, 1, ds, params, geom32, lu=lu)
        assert stalled.value.branch.points == [point]
    branch = continue_branch(point, direction, 1, 1e-7, params, geom32, lu=lu)
    assert [p.s for p in branch.points] == [point.s, point.s + 1e-7]


def test_sign_relation_on_physical_branch(nontrivial, mu_star):
    audit = verify_sign_relation(nontrivial, mu_star)
    assert audit.applicable
    assert audit.n_fail == 0
    assert audit.n_pass >= 10
    # physical sub-branch: mu < mu* and gamma < 0 throughout
    assert all(row.gamma < 0 and row.mu < mu_star for row in audit.rows)


def test_sign_relation_warns_on_semitrivial(semi, mu_star):
    with pytest.warns(RegionOfApplicabilityWarning):
        audit = verify_sign_relation(semi, mu_star)
    assert not audit.applicable
    # on the semitrivial line the relation is reversed, so audited rows fail
    assert audit.n_pass == 0


def test_sign_relation_empty_inside_bands(nontrivial, mu_star, monkeypatch):
    import refugia.continuation as cont

    monkeypatch.setattr(cont, "MU_BAND", 1.0)
    trimmed = Branch(BranchLabel.NONTRIVIAL, nontrivial.points[:5])
    audit = verify_sign_relation(trimmed, mu_star)
    assert audit.rows == []
    assert audit.n_excluded == 5
    assert not audit.all_pass  # nothing audited, nothing claimed


def test_sign_relation_excludes_marginal_points(nontrivial, mu_star):
    audited = verify_sign_relation(nontrivial, mu_star)
    points = list(nontrivial.points)
    for i, gamma in ((-3, 5e-7), (-2, -5e-7)):
        points[i] = dataclasses.replace(points[i], gamma=gamma, flag=StabilityFlag.MARGINAL)
    audit = verify_sign_relation(Branch(BranchLabel.NONTRIVIAL, points), mu_star)
    assert audit.n_excluded == audited.n_excluded + 2
    assert len(audit.rows) == len(audited.rows) - 2
    assert audit.n_fail == 0  # the +5e-7 point, below mu*, would fail if audited


def test_sign_relation_needs_five_points(nontrivial, mu_star):
    for n in (3, 4):
        stub = Branch(BranchLabel.NONTRIVIAL, nontrivial.points[:n])
        with pytest.raises(ValueError):
            verify_sign_relation(stub, mu_star)
    audit = verify_sign_relation(Branch(BranchLabel.NONTRIVIAL, nontrivial.points[:5]), mu_star)
    assert audit.n_pass + audit.n_fail + audit.n_excluded == 5


def test_sign_relation_band_is_mu_band_wide(nontrivial, mu_star):
    # a wrong-sign point (stable above mu*) fails the audit 5e-3 from mu* and
    # is excluded 5e-5 from it, inside MU_BAND = 1e-4
    points = list(nontrivial.points)
    audited = verify_sign_relation(nontrivial, mu_star)
    for offset, n_fail in ((5e-3, 1), (5e-5, 0)):
        points[-1] = dataclasses.replace(points[-1], mu=mu_star + offset, gamma=-0.01,
                                         flag=StabilityFlag.STABLE)
        audit = verify_sign_relation(Branch(BranchLabel.NONTRIVIAL, points), mu_star)
        assert audit.n_fail == n_fail
        assert audit.n_excluded == audited.n_excluded + 1 - n_fail


def test_amplitude_of_helper(nontrivial, geom32):
    point = nontrivial.points[-1]
    assert amplitude_of(point.x, geom32) == pytest.approx(point.x[geom32.n_omega:].mean())


@pytest.mark.parametrize(
    "grid,refuge",
    [
        (GridSpec(12, 12), RefugeShape.empty()),
        (GridSpec(12, 12), RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125))),
        (GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2)),
    ],
)
def test_keller_update_matches_dense_bordered_solve(grid, refuge):
    # one corrector update from a fixed off-branch iterate against
    # numpy.linalg.solve of the dense bordered system, for a random row and
    # for newton_solve's pinned row (0, 1), where the update is plain Newton's
    import refugia.steady as steady

    geom = build_geometry(grid, refuge)
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    X, Y = grid.cell_centers()
    u = 0.8 + 0.1 * np.cos(np.pi * X / grid.lx) * np.cos(2 * np.pi * Y / grid.ly)
    v = 0.3 + 0.05 * np.sin(np.pi * X / grid.lx) + 0.02 * Y
    x = np.concatenate([u.ravel(), v[geom.omega1_mask]])
    J = assemble_jacobian(p, x, geom)
    f_mu = residual_mu_derivative(x, geom)
    lu = factor(J, SingularJacobian, "test", coupled_order(geom))  # as bordered_newton does
    rng = np.random.default_rng(7)
    row_x, row_mu = rng.normal(size=x.size) / x.size, 0.3
    res, con = residual_steady(p, x, geom), 0.01

    dx, dmu = steady._keller_solver(lu, f_mu, row_x, row_mu)(res, con)
    bordered = np.block([[J.toarray(), f_mu[:, None]], [row_x[None, :], np.array([[row_mu]])]])
    expected = np.linalg.solve(bordered, -np.concatenate([res, [con]]))
    got = np.concatenate([dx, [dmu]])
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    dx, dmu = steady._keller_solver(lu, f_mu, np.zeros(x.size), 1.0)(res, 0.0)
    assert dmu == 0.0
    expected = np.linalg.solve(J.toarray(), -res)
    assert np.linalg.norm(dx - expected) <= 1e-10 * np.linalg.norm(expected)


def _spy_point_lus(monkeypatch):
    """The LU of J that each branch point continue_branch makes returns, in order."""
    import refugia.continuation as cont

    lus = []
    point_from_state = cont._point_from_state

    def spy(*args, **kwargs):
        point, lu = point_from_state(*args, **kwargs)
        lus.append(lu)
        return point, lu

    monkeypatch.setattr(cont, "_point_from_state", spy)
    return lus


def test_one_lu_of_j_per_accepted_point(switch, mu_star, params, geom32, scipy_counters,
                                        monkeypatch):
    # each accepted point factors J once: its eigen solve runs at sigma = 0
    # on that LU and makes none of its own, and the next step's corrector
    # takes it as the chord matrix; the first step takes the switch point's.
    # So no corrector factors, nothing factors the (n+1)x(n+1) bordered
    # matrix, and every solve stops on two successive residuals under the
    # tolerance
    import refugia.continuation as cont

    switch_point, switch_lu = switch
    eigen_lus = []  # (handed an LU, LUs made inside) per leading_eigenvalue call
    solves = []  # (the LU handed, LUs made inside, residual history) per corrector call
    leading, corrector = cont.leading_eigenvalue, cont.bordered_newton

    def counted_leading(J, *args, lu=None):
        before = len(scipy_counters.splu_shapes)
        ep = leading(J, *args, lu=lu)
        eigen_lus.append((lu is not None, len(scipy_counters.splu_shapes) - before))
        return ep

    def spy(*args, lu=None):
        before = len(scipy_counters.splu_shapes)
        out = corrector(*args, lu=lu)
        solves.append((lu, len(scipy_counters.splu_shapes) - before, out[2]))
        return out

    monkeypatch.setattr(cont, "leading_eigenvalue", counted_leading)
    monkeypatch.setattr(cont, "bordered_newton", spy)
    point_lus = _spy_point_lus(monkeypatch)
    n = geom32.n_unknowns
    scipy_counters.splu_shapes.clear()
    branch = continue_branch(
        switch_point, _switch_direction(switch_point, mu_star, params, geom32),
        n_steps=6, ds=0.025, params=params, geom=geom32, lu=switch_lu,
    )
    steps = len(branch.points) - 1
    assert steps == 6
    shapes = scipy_counters.splu_shapes
    assert (n + 1, n + 1) not in shapes
    assert set(shapes) == {(n, n)}
    assert len(shapes) == steps
    assert eigen_lus == [(True, 0)] * steps
    assert [made for _, made, _ in solves] == [0] * steps
    handed = [lu for lu, _, _ in solves]
    assert all(a is b for a, b in zip(handed, [switch_lu, *point_lus[:-1]], strict=True))
    tol = NewtonConfig().tol_residual
    assert all(h[-2] <= tol and h[-1] <= tol for _, _, h in solves)
    assert [p.corrector_iters for p in branch.points[1:]] == [len(h) - 1 for _, _, h in solves]


def test_failed_lu_of_j_is_no_convergence(params, geom16, monkeypatch):
    import scipy.sparse.linalg as spla

    def singular(A, *args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    guess = constant_state(geom16, 0.9, 0.05).as_vector()
    coupled_order(geom16)  # build the order first: only the LU of J fails here
    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(NoConvergence, match="LU of J failed") as info:
        solve_at_amplitude(params, geom16, 0.05, 0.95, x_guess=guess)
    assert isinstance(info.value, RefugiaError)


def test_corrector_honours_newton_max_iter(switch_point, mu_star, params, geom32, monkeypatch):
    # solver.newton.max_iter bounds every corrector attempt of continuation
    import refugia.continuation as cont
    import refugia.steady as steady

    attempts = []
    corrector, residual = cont.bordered_newton, steady.residual_steady

    def counted_corrector(*args, **kwargs):
        attempts.append(0)
        return corrector(*args, **kwargs)

    def counted_residual(*args, **kwargs):
        attempts[-1] += 1
        return residual(*args, **kwargs)

    monkeypatch.setattr(cont, "bordered_newton", counted_corrector)
    monkeypatch.setattr(steady, "residual_steady", counted_residual)
    base = constant_state(geom32, params.lam, 0.0).as_vector()
    direction = (switch_point.x - base, switch_point.mu - mu_star)
    with pytest.raises(ContinuationStalled):
        continue_branch(
            switch_point, direction, n_steps=2, ds=0.02, params=params, geom=geom32,
            newton_cfg=NewtonConfig(tol_residual=1e-16, max_iter=6),
        )
    assert attempts and max(attempts) <= 6


def test_continuation_does_not_jump_off_the_branch():
    # enriched parameters (mu* = 8/9) with the centred square refuge: past the
    # amplitude maximum the arclength hyperplane also cuts the predator-free
    # line, and an unguarded corrector once landed there (mu 0.16 -> 4.0,
    # 62 steps away), leaving amplitude-0 points on the "nontrivial" branch
    p = ModelParams(lam=4.0, m=2.0, c=2.0, b=1.0, mu=8.0 / 9.0)
    geom = build_geometry(GridSpec(12, 12), RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125)))
    start, _ = solve_at_amplitude(p, geom, 0.2, 8.0 / 9.0)
    base = constant_state(geom, p.lam, 0.0).as_vector()
    direction = (start.x - base, start.mu - 8.0 / 9.0)
    branch = continue_branch(start, direction, n_steps=126, ds=0.1, params=p, geom=geom)
    assert np.all(branch.amplitudes() > 0.1)
    pts = branch.points
    for a, b in zip(pts, pts[1:]):
        dist = np.sqrt(
            np.mean((b.x - a.x) ** 2) + (b.mu - a.mu) ** 2
        )
        assert dist <= 2.0 * (b.s - a.s)


def test_branch_run_to_mu_zero_keeps_its_leading_eigenvalue():
    # an enriched branch without a refuge walked towards its end at mu = 0:
    # past mu = 4.8e-2 the step halves down to reach mu = 1.2e-3, where
    # u is near 0 and the prey block near a multiple of the identity (at
    # the predator-only state itself no eigen path converges)
    p = ModelParams(lam=1.0, m=2.25, c=1.1875, b=1.75, mu=1.1875 / 3.25)
    geom = build_geometry(GridSpec(16, 10, lx=1.6), RefugeShape.empty())
    top = p.m * (p.lam + 1.0 / p.m) ** 2 / (4.0 * p.b)  # the constant-mode fold
    first, _ = solve_at_amplitude(p, geom, 0.25 * top, p.mu)
    second, _ = solve_at_amplitude(p, geom, 0.5 * top, first.mu, x_guess=first.x)
    direction = (second.x - first.x, second.mu - first.mu)
    branch = continue_branch(second, direction, 8, 0.2 * top, p, geom)
    for point in branch.points:
        J = assemble_jacobian(p.with_mu(point.mu), point.x, geom)
        assert point.gamma == pytest.approx(np.linalg.eigvals(J.toarray()).real.max(), abs=1e-8)


#: an enriched case without a refuge (m*lam = 1.203125) on 16x10
WALK = ModelParams(lam=1.0, m=1.203125, c=0.5, b=1.0, mu=0.5 / (1.0 + 1.203125))


def _walk_to_mu_zero(step: float) -> Branch:
    """WALK's branch from its points at a quarter and half of the
    constant-mode fold, continued over 8 steps of step times the fold's
    amplitude: past the Hopf point and towards the branch's end at mu = 0."""
    p = WALK
    geom = build_geometry(GridSpec(16, 10, lx=1.6), RefugeShape.empty())
    top = p.m * (p.lam + 1.0 / p.m) ** 2 / (4.0 * p.b)  # the constant-mode fold
    first, _ = solve_at_amplitude(p, geom, 0.25 * top, p.mu)
    second, _ = solve_at_amplitude(p, geom, 0.5 * top, first.mu, x_guess=first.x)
    direction = (second.x - first.x, second.mu - first.mu)
    return continue_branch(second, direction, 8, step * top, p, geom)


def test_a_step_onto_the_predator_only_state_is_retried_at_half_ds():
    # after mu = 0.0400 a halved step lands on u = 0 at mu = 0, above the
    # Hopf point mu_H = 0.0383; retried at half that step it stays on the
    # branch, which goes on below mu_H
    branch = _walk_to_mu_zero(0.15)
    u_hopf = 0.5 * (WALK.lam - 1.0 / WALK.m)
    mu_hopf = WALK.c * u_hopf / (1.0 + WALK.m * u_hopf)
    assert branch.end == "n_steps"
    assert branch.points[-1].mu < mu_hopf


@pytest.mark.xfail(strict=True, raises=ContinuationStalled,
                   reason="the corrector stalls as u -> 0 near mu = 0 (ROADMAP item 7)")
def test_a_walk_to_mu_zero_does_not_stall():
    # steps of half the fold: two are accepted, the second at mu = 2.9e-12,
    # and every step after it fails, down to ds/64
    assert len(_walk_to_mu_zero(0.5).points) == 9


@pytest.mark.parametrize("grid,p", [
    (GridSpec(16, 10, lx=1.6), WALK),
    (GridSpec(32, 32), ModelParams(lam=1.0, m=1.5, c=2.0, b=1.0, mu=0.5)),
    (GridSpec(24, 12, ly=0.7), ModelParams(lam=1.5, m=0.5, c=2.0, b=1.3, mu=0.5)),
], ids=["enriched-16x10", "enriched-32", "m-lam-below-1-24x12"])
def test_no_refuge_branch_meets_its_closed_form(grid, p):
    # without a refuge every branch state is constant and the Jacobian splits
    # over the cosine modes (conftest.no_refuge_branch_oracle); 11 points from
    # s0 = 0.05 in steps of 0.1, on both sides of m*lam = 1: the 16x10 walk
    # passes the Hopf point mu_H = 0.038 and ends near mu = 0.031
    geom = build_geometry(grid, RefugeShape.empty())
    mu_star = p.c * p.lam / (1.0 + p.m * p.lam)
    point, lu = branch_switch(mu_star, p, geom, s0=0.05)
    direction = _switch_direction(point, mu_star, p, geom)
    branch = continue_branch(point, direction, n_steps=10, ds=0.1, params=p, geom=geom, lu=lu)
    assert len(branch.points) == 11
    pairs = 0
    for point in branch.points:
        u, v, leading = no_refuge_branch_oracle(p, point.mu, grid)
        got_u, got_v = split(point.x, geom)
        assert max(np.abs(got_u - u).max(), np.abs(got_v - v).max()) <= 1e-9
        assert point.gamma == pytest.approx(leading.real, abs=1e-9)
        if abs(leading.imag) > 1e-6:
            assert point.complex_pair
            pairs += 1
    assert pairs > 0


@pytest.fixture
def corrector_lus(monkeypatch):
    """Every LU bordered_newton makes, one entry per call of steady.factor."""
    import refugia.steady as steady

    calls = []
    factor_ = steady.factor

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return factor_(*args, **kwargs)

    monkeypatch.setattr(steady, "factor", counted)
    return calls


@pytest.mark.parametrize(
    "grid,refuge",
    [
        (GridSpec(32, 32), RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125))),
        (GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2)),
        (GridSpec(16, 16), RefugeShape.empty()),
    ],
    ids=["centred-square-32", "off-centre-disc", "no-refuge"],
)
def test_carried_lu_branch_matches_fresh_lu_branch(
    grid, refuge, params, corrector_lus, monkeypatch
):
    # the branch continued on carried LUs, the switch point's first, against
    # the same branch with a fresh LU at every step; the carry must save LUs
    # and move no point
    import refugia.continuation as cont

    geom = build_geometry(grid, refuge)
    mu_star = detect_transcritical(trace_semitrivial(params, (0.8, 1.2), 9, geom))
    start, start_lu = branch_switch(mu_star, params, geom, s0=0.05)
    direction = _switch_direction(start, mu_star, params, geom)
    corrector_lus.clear()
    carried = continue_branch(start, direction, n_steps=12, ds=0.025, params=params, geom=geom,
                              lu=start_lu)
    n_carried = len(corrector_lus)

    corrector = cont.bordered_newton
    monkeypatch.setattr(cont, "bordered_newton", lambda *args, lu=None: corrector(*args))
    corrector_lus.clear()
    fresh = continue_branch(start, direction, n_steps=12, ds=0.025, params=params, geom=geom)
    assert len(fresh.points) == len(carried.points) == 13
    assert n_carried < len(corrector_lus)
    assert np.max(np.abs(carried.mus() - fresh.mus())) <= 1e-9
    assert np.max(np.abs(carried.gammas() - fresh.gammas())) <= 1e-8


def test_corrector_refactors_a_stale_lu(corrector_lus):
    # the LU of J at the start of the 12x12 enriched branch (amplitude 0.2),
    # handed to an amplitude-pinned solve far along it (amplitude 3): the
    # chord stops contracting, the corrector refactors, and it lands on the
    # point a fresh-LU solve finds
    import refugia.steady as steady

    p = ModelParams(lam=4.0, m=2.0, c=2.0, b=1.0, mu=8.0 / 9.0)
    geom = build_geometry(GridSpec(12, 12), RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125)))
    direction = steady.solve_kernel_function(p, geom).direction(geom)
    base = constant_state(geom, p.lam, 0.0).as_vector()
    n1 = geom.n_omega1
    row_x = np.concatenate([np.zeros(geom.n_omega), np.full(n1, 1.0 / n1)])
    cfg = NewtonConfig()
    x0, mu0, _ = steady.bordered_newton(
        base + 0.2 * direction, 8.0 / 9.0, row_x, 0.0, 0.2, p, geom, cfg
    )
    stale = factor(assemble_jacobian(p.with_mu(mu0), x0, geom), SingularJacobian, "test",
                   coupled_order(geom))
    x = base + 3.0 * direction
    corrector_lus.clear()
    x_new, mu, _ = steady.bordered_newton(x, mu0, row_x, 0.0, 3.0, p, geom, cfg, lu=stale)
    assert len(corrector_lus) >= 1
    x_ref, mu_ref, _ = steady.bordered_newton(x, mu0, row_x, 0.0, 3.0, p, geom, cfg)
    assert np.max(np.abs(x_new - x_ref)) <= 1e-10
    assert abs(mu - mu_ref) <= 1e-10


def test_retried_step_keeps_the_last_points_lu(switch, mu_star, params, geom32, monkeypatch):
    # one corrector failure (the third step's first attempt): the halved
    # retry is handed the same LU as the failed attempt, that of the last
    # accepted point, and every other step the LU of the point before it
    import refugia.continuation as cont

    switch_point, switch_lu = switch
    corrector = cont.bordered_newton
    handed = []

    def failing_once(*args, lu=None):
        handed.append(lu)
        if len(handed) == 3:
            raise NoConvergence("injected corrector failure")
        return corrector(*args, lu=lu)

    monkeypatch.setattr(cont, "bordered_newton", failing_once)
    point_lus = _spy_point_lus(monkeypatch)
    branch = continue_branch(
        switch_point, _switch_direction(switch_point, mu_star, params, geom32),
        n_steps=4, ds=0.025, params=params, geom=geom32, lu=switch_lu,
    )
    assert len(branch.points) == 5
    assert branch.points[3].s - branch.points[2].s == pytest.approx(0.0125)
    expected = [switch_lu, point_lus[0], point_lus[1], point_lus[1], point_lus[2]]
    assert all(a is b for a, b in zip(handed, expected, strict=True))


@pytest.mark.parametrize(
    "grid,refuge,params",
    [
        (GridSpec(64, 64), CENTER_RECT, ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)),
        (GridSpec(16, 10, lx=1.6), RefugeShape.disc((0.8, 0.5), 0.2),
         ModelParams(lam=1.3, m=0.7, c=1.5, b=2.0, mu=1.0)),
        (GridSpec(32, 32), CENTER_RECT, ModelParams(lam=2.0, m=1.0, c=2.0, b=1.0, mu=1.0)),
    ],
    ids=["square-64", "disc-16x10", "enriched-square-32"],
)
def test_exchange_of_stability_and_branch_slope_at_first_order(grid, refuge, params):
    # Crandall & Rabinowitz (Arch. Rational Mech. Anal. 52, 1973): along the
    # branch gamma/(mu - mu*) -> 1, and (mu - mu*)/a -> s1 < 0, both at first
    # order in the predator amplitude a; one Richardson step lands near each limit
    geom = build_geometry(grid, refuge)
    s1 = branch_slope_analytic(params, geom)
    assert s1 < 0
    mu_star = params.c * params.lam / (1.0 + params.m * params.lam)
    amps = 0.2 * 2.0 ** -np.arange(5)
    points = [solve_at_amplitude(params, geom, a, mu_star + s1 * a)[0] for a in amps]
    gap = np.array([point.mu for point in points]) - mu_star
    ratio = np.array([point.gamma for point in points]) / gap
    slope = gap / amps
    for err in (ratio - 1.0, slope - s1):
        shrink = np.abs(err[:-1] / err[1:])
        assert np.all((shrink >= 1.8) & (shrink <= 3.0)), shrink
    assert abs(2.0 * ratio[-1] - ratio[-2] - 1.0) <= 1e-3
    assert abs(2.0 * slope[-1] - slope[-2] - s1) <= 1e-3 * abs(s1)
