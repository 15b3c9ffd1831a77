import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import semitrivial_leading_analytic, smooth_positive
from refugia import spectral
from refugia.continuation import continue_branch, solve_at_amplitude
from refugia.errors import EigenNoConvergence, SingularJacobian
from refugia.fields import Region, ScalarField, SystemState, constant_state
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import ModelParams, assemble_jacobian, coupled_order, factor
from refugia.spectral import NCV, StabilityFlag, classify_value, leading_eigenvalue
from refugia.steady import NewtonConfig, newton_solve, solve_kernel_function


def _semitrivial_jacobian(params, geom):
    st = constant_state(geom, params.lam, 0.0)
    return assemble_jacobian(params, st.as_vector(), geom)


def test_diagonal_operator():
    J = sp.diags([-3.0, -1.0, 2.0]).tocsr()
    ep = leading_eigenvalue(J)
    assert ep.value == pytest.approx(2.0, abs=1e-12)
    assert np.argmax(np.abs(ep.vector)) == 2
    assert abs(ep.vector[2]) == pytest.approx(1.0)


def test_semitrivial_leading_matches_formula(geom16):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.2)
    ep = leading_eigenvalue(_semitrivial_jacobian(p, geom16))
    assert ep.value == pytest.approx(-0.2, abs=1e-8)
    assert not ep.complex_pair
    # the predator part of the eigenvector is the (near-)constant mode
    v_part = ep.vector[geom16.n_omega :]
    assert np.ptp(v_part) <= 1e-6 * np.max(np.abs(v_part))


def test_failed_shift_invert_is_eigen_no_convergence(geom16, monkeypatch):
    # a failing LU of J - sigma*I, in SuperLU's order or in the geometry's,
    # and an ARPACK failure other than non-convergence, at either shift, all
    # surface as EigenNoConvergence
    J = _semitrivial_jacobian(ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.2), geom16)
    order = coupled_order(geom16)  # built before splu breaks
    lu = factor(J, SingularJacobian, "test", order)

    def arpack_error(*args, **kwargs):
        raise spla.ArpackError(-9999)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "eigs", arpack_error)
    with pytest.raises(EigenNoConvergence, match="shift-invert .* failed: ARPACK"):
        leading_eigenvalue(J)
    with pytest.raises(EigenNoConvergence, match="shift-invert at sigma = 0 failed: ARPACK"):
        leading_eigenvalue(J, lu=lu)
    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(EigenNoConvergence, match="shift-invert .* failed: Factor"):
        leading_eigenvalue(J)
    with pytest.raises(EigenNoConvergence, match="shift-invert .* failed: Factor"):
        leading_eigenvalue(J, order)


def test_semitrivial_marginal_at_threshold(geom16):
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    J = _semitrivial_jacobian(p, geom16)
    ep = leading_eigenvalue(J)
    assert abs(ep.value) <= 1e-8
    flag = classify_value(leading_eigenvalue(J, coupled_order(geom16)).value)
    assert flag is StabilityFlag.MARGINAL


def test_analytic_oracle_values():
    assert semitrivial_leading_analytic(
        ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.2)
    ) == pytest.approx(-0.2)
    p_star = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    assert semitrivial_leading_analytic(p_star) == pytest.approx(0.0, abs=1e-15)
    prey_dominated = ModelParams(lam=0.1, m=0.0, c=1.0, b=1.0, mu=5.0)
    assert semitrivial_leading_analytic(prey_dominated) == pytest.approx(-0.1)


def test_prey_dominated_case_against_dense(geom16):
    p = ModelParams(lam=0.1, m=0.0, c=1.0, b=1.0, mu=5.0)
    J = _semitrivial_jacobian(p, geom16)
    ep = leading_eigenvalue(J)
    dense = np.max(np.linalg.eigvals(J.toarray()).real)
    assert ep.value == pytest.approx(-0.1, abs=1e-8)
    assert ep.value == pytest.approx(dense, abs=1e-8)


def test_classification_across_threshold(geom16):
    cases = [(1.2, StabilityFlag.STABLE), (0.9, StabilityFlag.UNSTABLE)]
    for mu, expected in cases:
        p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=mu)
        J = _semitrivial_jacobian(p, geom16)
        assert classify_value(leading_eigenvalue(J, coupled_order(geom16)).value) is expected


def test_monotone_slope_until_cap(geom16):
    # gamma(mu) = 1 - mu until it saturates at -lam = -1 (for mu >= 2)
    mus = np.linspace(1.5, 2.5, 6)
    gammas = [
        leading_eigenvalue(
            _semitrivial_jacobian(ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=m), geom16)
        ).value
        for m in mus
    ]
    for mu, g in zip(mus, gammas):
        assert g == pytest.approx(max(-1.0, 1.0 - mu), abs=1e-8)
    diffs = np.diff(gammas[:3])  # uncapped part: slope exactly -1
    np.testing.assert_allclose(diffs, -0.2, atol=1e-8)


def test_oracle_agreement_random_draws(geom16):
    rng = np.random.default_rng(41)
    for _ in range(8):
        p = ModelParams(
            lam=rng.uniform(0.3, 2.0),
            m=rng.uniform(0.0, 2.0),
            c=rng.uniform(0.5, 3.0),
            b=rng.uniform(0.5, 2.0),
            mu=rng.uniform(0.2, 2.5),
        )
        ep = leading_eigenvalue(_semitrivial_jacobian(p, geom16))
        assert ep.value == pytest.approx(semitrivial_leading_analytic(p), abs=1e-8)
        assert ep.residual <= 1e-8


def test_dense_equivalence_on_coexistence_state():
    geom = build_geometry(GridSpec(20, 20), RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125)))
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    kt = solve_kernel_function(p, geom)
    x0 = constant_state(geom, 1.0, 0.0).as_vector() + 0.1 * kt.direction(geom)
    state = newton_solve(
        SystemState.from_vector(np.maximum(x0, 0.0), geom.n_omega), p, NewtonConfig(), geom
    ).state
    J = assemble_jacobian(p, state.as_vector(), geom)
    ep = leading_eigenvalue(J, coupled_order(geom))
    dense = np.linalg.eigvals(J.toarray())
    assert ep.value == pytest.approx(np.max(dense.real), abs=1e-8)


def test_eigen_residual_contract(geom16):
    rng = np.random.default_rng(43)
    p = ModelParams(lam=1.2, m=0.5, c=2.0, b=1.0, mu=0.8)
    u = ScalarField(smooth_positive(geom16.grid, rng).ravel(), Region.OMEGA)
    v = ScalarField(smooth_positive(geom16.grid, rng, base=0.4)[geom16.omega1_mask], Region.OMEGA1)
    J = assemble_jacobian(p, SystemState(u, v).as_vector(), geom16)
    ep = leading_eigenvalue(J)
    assert np.max(np.abs(ep.vector)) == pytest.approx(1.0)
    assert np.max(np.abs(J @ ep.vector - ep.value * ep.vector)) <= 1e-8


def test_complex_pair_is_flagged():
    # pure rotation: eigenvalues +/- i, no real eigenpair exists
    J = sp.csr_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    ep = leading_eigenvalue(J)
    assert ep.complex_pair
    assert ep.value == pytest.approx(0.0, abs=1e-10)
    assert classify_value(ep.value) is StabilityFlag.MARGINAL


def test_slowly_rotating_pair_is_flagged():
    # eigenvalues -0.1 +/- 1e-6 i on the ARPACK path: the real part of the
    # eigenvector alone misses the residual contract by about 1e-6, so the
    # pair must be taken as complex however slowly it rotates
    rotation = np.array([[-0.1, 1e-6], [-1e-6, -0.1]])
    J = sp.block_diag([rotation, sp.diags(-np.arange(1.0, 21.0))]).tocsr()
    ep = leading_eigenvalue(J)
    assert ep.complex_pair
    assert ep.value == pytest.approx(-0.1, abs=1e-12)
    assert ep.residual <= 1e-12


def test_sigma_zero_keeps_a_spare_pair():
    # the value nearest 0 is -0.1 and the rightmost 0.3: a single pair
    # (N_PAIRS = 1) at sigma = 0 would return -0.1
    J = sp.diags(np.concatenate([[-0.1, 0.3], -np.arange(1.0, 41.0)])).tocsr()
    ep = leading_eigenvalue(J, lu=factor(J, SingularJacobian, "test"))
    assert ep.value == pytest.approx(0.3, abs=1e-12)


def test_pair_off_the_residual_contract_is_refused(monkeypatch):
    # ARPACK stubbed to return the two leading pairs of a diagonal matrix,
    # each vector off by 1e-6 in the next entry: both residuals are 1e-6
    n = 20
    J = sp.diags(-np.arange(1.0, n + 1)).tocsr()
    eye = np.eye(n)
    vectors = eye[:, :2] + 1e-6 * eye[:, 1:3]
    monkeypatch.setattr(spla, "eigs", lambda *args, **kwargs: (np.array([-1.0, -2.0]) + 0j,
                                                               vectors + 0j))
    with pytest.raises(EigenNoConvergence, match="best of 2 was 1.000e-06"):
        leading_eigenvalue(J)


@pytest.mark.parametrize("off,message", [(0.0, None), (1e-6, "best of 1 was 1.000e-06")])
def test_arpack_partial_result_is_held_to_the_residual_contract(off, message, monkeypatch):
    # ARPACK stubbed to stop short with one pair of a diagonal matrix: the
    # pair is returned when it meets the residual contract, and refused when
    # its vector is off by 1e-6 in the next entry
    n = 20
    J = sp.diags(-np.arange(1.0, n + 1)).tocsr()
    eye = np.eye(n)
    vector = eye[:, :1] + off * eye[:, 1:2]

    def stopped_short(*args, **kwargs):
        raise spla.ArpackNoConvergence("stopped short", np.array([-1.0 + 0j]), vector + 0j)

    monkeypatch.setattr(spla, "eigs", stopped_short)
    if message is None:
        ep = leading_eigenvalue(J)
        assert (ep.value, ep.residual) == (-1.0, 0.0)
    else:
        with pytest.raises(EigenNoConvergence, match=message):
            leading_eigenvalue(J)


def test_non_square_operator_is_refused():
    with pytest.raises(ValueError, match="square"):
        leading_eigenvalue(sp.csr_matrix((3, 4)))


ENRICHED = ModelParams(lam=4.0, m=2.0, c=2.0, b=1.0, mu=8.0 / 9.0)  # mu* = 8/9


@pytest.mark.parametrize(
    "grid,refuge",
    [
        (GridSpec(12, 12), RefugeShape.empty()),
        (GridSpec(12, 12), RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125))),
        (GridSpec(14, 10, lx=1.4), RefugeShape.disc((0.6, 0.45), 0.2)),
    ],
    ids=["no-refuge", "centred-square", "off-centre-disc"],
)
def test_dense_oracle_along_enriched_branch(grid, refuge):
    # walk the coexistence branch by pinned amplitude up to the
    # paradox-of-enrichment regime and compare with the dense spectrum
    geom = build_geometry(grid, refuge)
    mu, x = ENRICHED.mu, None
    for amplitude in np.linspace(0.5, 10.0, 20):
        point, _ = solve_at_amplitude(ENRICHED, geom, float(amplitude), mu, x_guess=x)
        mu, x = point.mu, point.x
        J = assemble_jacobian(ENRICHED.with_mu(mu), x, geom)
        # the branch point's path: sigma = 0 on an LU of J itself
        lu = factor(J, SingularJacobian, "test", coupled_order(geom))
        ep = leading_eigenvalue(J, lu=lu)
        dense = np.max(np.linalg.eigvals(J.toarray()).real)
        assert ep.value == pytest.approx(dense, abs=1e-8)
        assert ep.residual <= 1e-8
        assert point.gamma == ep.value and point.complex_pair == ep.complex_pair
    if refuge.kind == "empty":
        # without a refuge the branch ends near a Hopf point: -0.2 +/- 0.529i
        assert ep.complex_pair and point.complex_pair
        assert ep.value == pytest.approx(-0.2, abs=1e-8)


def test_branch_points_keep_the_complex_pair_past_the_hopf_point():
    # deep past the Hopf point without a refuge (u falls towards 0), real
    # prey modes with vanishing diffusion come nearer 0 than the leading
    # complex pair, so sigma = 0 alone returns a real value left of it; a
    # branch point whose predecessor's pair was complex then redoes the
    # solve at the Gershgorin shift
    p = ModelParams(lam=2.0, m=2.0, c=1.0, b=1.0, mu=0.4)  # mu* = 0.4
    geom = build_geometry(GridSpec(16, 10, lx=1.6), RefugeShape.empty())
    top = p.m * (p.lam + 1.0 / p.m) ** 2 / (4.0 * p.b)  # the constant-mode fold
    first, _ = solve_at_amplitude(p, geom, 0.45 * top, p.mu)
    second, _ = solve_at_amplitude(p, geom, 0.9 * top, first.mu, x_guess=first.x)
    direction = (second.x - first.x, second.mu - first.mu)
    branch = continue_branch(second, direction, 8, 0.1 * top, p, geom)
    misses = 0
    for point in branch.points:
        J = assemble_jacobian(p.with_mu(point.mu), point.x, geom)
        dense = np.linalg.eigvals(J.toarray())
        lead = dense[np.argmax(dense.real)]
        at_zero = leading_eigenvalue(J, lu=factor(J, SingularJacobian, "test", coupled_order(geom)))
        misses += abs(at_zero.value - lead.real) > 1e-8
        assert point.gamma == pytest.approx(lead.real, abs=1e-8)
        assert point.complex_pair and abs(lead.imag) > 1e-10
    assert misses >= 2


@pytest.mark.parametrize(
    "refuge,bracket",
    [
        (RefugeShape.empty(), (0.7617, 0.8079)),
        (RefugeShape.rectangle((0.5, 0.5), (0.125, 0.125)), (0.7712, 0.7864)),
    ],
    ids=["no-refuge", "centred-square"],
)
def test_dense_oracle_inside_hopf_bracket(refuge, bracket):
    # the continuation points flanking the sign change of the leading complex
    # pair's real part (ds = 0.1) bracket the Hopf point; points strictly
    # inside are where two pairs nearest the shift could miss the rightmost
    lo, hi = bracket
    geom = build_geometry(GridSpec(12, 12), refuge)
    start, _ = solve_at_amplitude(ENRICHED, geom, 0.2, ENRICHED.mu)
    base = constant_state(geom, ENRICHED.lam, 0.0).as_vector()
    direction = (start.x - base, start.mu - ENRICHED.mu)
    branch = continue_branch(start, direction, 80, 0.1, ENRICHED, geom)
    state = SystemState.from_vector([p for p in branch.points if p.mu > hi][-1].x, geom.n_omega)
    for mu in np.linspace(hi, lo, 6)[1:-1]:
        params = ENRICHED.with_mu(float(mu))
        state = newton_solve(state, params, NewtonConfig(), geom).state
        J = assemble_jacobian(params, state.as_vector(), geom)
        ep = leading_eigenvalue(J, coupled_order(geom))
        dense = np.max(np.linalg.eigvals(J.toarray()).real)
        assert ep.value == pytest.approx(dense, abs=1e-8)
        assert ep.complex_pair and ep.residual <= 1e-8
        if refuge.kind == "empty":
            # constant-mode Hopf point mu_H = c*u_H/(1 + m*u_H), u_H = (lam - 1/m)/2
            assert np.sign(ep.value) == np.sign(7.0 / 9.0 - mu)


@pytest.mark.parametrize("n,arpack_calls", [(NCV, 0), (NCV + 1, 1)], ids=["dense", "arpack"])
def test_dense_fallback_boundary(n, arpack_calls, scipy_counters):
    # ARPACK needs N_PAIRS < NCV <= n, so n = NCV is the largest dense case
    rng = np.random.default_rng(47)
    J = sp.diags([np.ones(n - 1), rng.uniform(-3.0, 1.0, n), np.full(n - 1, 0.5)], [-1, 0, 1])
    ep = leading_eigenvalue(J)
    assert scipy_counters.eigs_calls == arpack_calls
    assert ep.value == pytest.approx(np.max(np.linalg.eigvals(J.toarray()).real), abs=1e-8)


def test_shift_invert_solve_count(geom32, monkeypatch):
    # two pairs with a 6-vector Krylov basis (NCV) take 7 shift-invert solves
    # at this point, one Arnoldi pass without a restart, at the Gershgorin
    # shift and at sigma = 0 on an LU of J; a basis of 8 took 9, and six
    # pairs with ARPACK's default basis of 13 took 45
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    point, _ = solve_at_amplitude(p, geom32, 0.1, p.mu)
    J = assemble_jacobian(p.with_mu(point.mu), point.x, geom32)
    solves = []
    factor = spectral.factor

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(1)
            return self.lu.solve(rhs)

    lu = CountingLU(factor(J, SingularJacobian, "test", coupled_order(geom32)))
    monkeypatch.setattr(spectral, "factor", lambda *args: CountingLU(factor(*args)))
    ep = leading_eigenvalue(J, coupled_order(geom32))
    assert ep.residual <= 1e-8
    assert len(solves) == 7
    solves.clear()
    at_zero = leading_eigenvalue(J, lu=lu)
    assert at_zero.value == pytest.approx(ep.value, abs=1e-10)
    assert len(solves) == 7
