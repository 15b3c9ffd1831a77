"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria run at their stated scale (64x64 unit square with the rectangular
refuge [0.375, 0.625]^2 unless noted) and their stated tolerances.
"""

import time

import numpy as np
import pytest

from conftest import smooth_positive
from refugia.continuation import (
    branch_switch,
    continue_branch,
    detect_transcritical,
    solve_at_amplitude,
    trace_semitrivial,
    verify_sign_relation,
)
from refugia.dynamics import TransientConfig, run_to_steady
from refugia.fields import Region, ScalarField, SystemState, constant_state
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import (
    ModelParams,
    assemble_jacobian,
    coupled_order,
    laplacian_neumann,
    nonlinear_diffusion,
    residual_steady,
)
from refugia.spectral import (
    StabilityFlag,
    classify_value,
    leading_eigenvalue,
    semitrivial_leading_analytic,
)
from refugia.steady import NewtonConfig, newton_solve, solve_kernel_function


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def params_std():
    return ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)


@pytest.fixture(scope="module")
def pipeline(geom64, params_std):
    """Shared branch computation for criteria 5-8."""
    semi = trace_semitrivial(params_std, (0.8, 1.2), 9, geom64)
    mu_star = detect_transcritical(semi)
    start = branch_switch(mu_star, params_std, geom64, s0=0.05)
    base = constant_state(geom64, params_std.lam, 0.0).as_vector()
    direction = (start.state.as_vector() - base, start.mu - mu_star)
    branch = continue_branch(
        start, direction, n_steps=22, ds=0.025, params=params_std, geom=geom64
    )
    return semi, mu_star, branch


def test_criterion_1_bifurcation_locus(geom64):
    cases = [(1.0, 1.0, 2.0, 1.0), (2.0, 1.0, 3.0, 2.0), (0.5, 2.0, 4.0, 1.0)]
    ok = True
    details = []
    for lam, m, c, mu_expected in cases:
        t0 = time.perf_counter()
        p = ModelParams(lam=lam, m=m, c=c, b=1.0, mu=mu_expected)
        # 6 sample points leave mu* strictly between samples, so the
        # bracketing root find is genuinely exercised
        branch = trace_semitrivial(
            p, (0.8 * mu_expected, 1.2 * mu_expected), 6, geom64
        )
        mu_star = detect_transcritical(branch)
        elapsed = time.perf_counter() - t0
        gap = abs(mu_star - mu_expected)
        details.append(f"(lam={lam},m={m},c={c}): gap={gap:.2e} in {elapsed:.1f}s")
        ok = ok and gap <= 1e-9 and elapsed <= 10.0
    _verdict(1, ok, "; ".join(details))
    assert ok


def test_criterion_2_semitrivial_spectrum_oracle(geom64, geom16):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        p = ModelParams(
            lam=rng.uniform(0.3, 2.0),
            m=rng.uniform(0.0, 2.0),
            c=rng.uniform(0.5, 3.0),
            b=rng.uniform(0.5, 2.0),
            mu=rng.uniform(0.2, 2.5),
        )
        st = constant_state(geom64, p.lam, 0.0)
        lead = leading_eigenvalue(assemble_jacobian(p, st.as_vector(), geom64)).value
        worst = max(worst, abs(lead - semitrivial_leading_analytic(p)))
    worst_dense = 0.0
    for _ in range(6):
        p = ModelParams(
            lam=rng.uniform(0.3, 2.0),
            m=rng.uniform(0.0, 2.0),
            c=rng.uniform(0.5, 3.0),
            b=rng.uniform(0.5, 2.0),
            mu=rng.uniform(0.2, 2.5),
        )
        st = constant_state(geom16, p.lam, 0.0)
        J = assemble_jacobian(p, st.as_vector(), geom16)
        lead = leading_eigenvalue(J, coupled_order(geom16)).value
        dense = float(np.max(np.linalg.eigvals(J.toarray()).real))
        worst_dense = max(worst_dense, abs(lead - dense))
    ok = worst <= 1e-8 and worst_dense <= 1e-8
    _verdict(2, ok, f"analytic gap {worst:.2e} (20 draws), dense gap {worst_dense:.2e}")
    assert ok


def test_criterion_3_jacobian_fidelity(geom64):
    rng = np.random.default_rng(99)
    p = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=0.9)
    eps = 1e-6
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        u = ScalarField(smooth_positive(geom64.grid, rng).ravel(), Region.OMEGA)
        v = ScalarField(smooth_positive(geom64.grid, rng, base=0.5)[geom64.omega1_mask], Region.OMEGA1)
        x0 = np.concatenate([u.values, v.values])
        J = assemble_jacobian(p, x0, geom64)

        def resid(x):
            return residual_steady(p, x, geom64)

        d = rng.normal(size=x0.size)
        d /= np.max(np.abs(d))
        fd = (resid(x0 + eps * d) - resid(x0 - eps * d)) / (2 * eps)
        jd = J @ d
        worst = max(worst, float(np.linalg.norm(fd - jd) / np.linalg.norm(jd)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    _verdict(3, ok, f"worst relative error {worst:.2e} over 10 states in {elapsed:.1f}s")
    assert ok


def test_criterion_4_operator_convergence():
    lap_err, nld_err = [], []
    for n in (32, 64, 128):
        geom = build_geometry(GridSpec(n, n), RefugeShape.empty())
        X, Y = geom.grid.cell_centers()
        f = np.cos(np.pi * X) * np.cos(np.pi * Y)
        lap = laplacian_neumann(f.ravel(), geom)
        lap_err.append(np.max(np.abs(lap + 2 * np.pi**2 * f.ravel())))
        u = 2.0 + f
        gradsq = np.pi**2 * (
            np.sin(np.pi * X) ** 2 * np.cos(np.pi * Y) ** 2
            + np.cos(np.pi * X) ** 2 * np.sin(np.pi * Y) ** 2
        )
        exact = gradsq + u * (-2 * np.pi**2 * f)
        nld = nonlinear_diffusion(u.ravel(), geom)
        nld_err.append(np.max(np.abs(nld - exact.ravel())))
    lap_orders = [np.log2(lap_err[i] / lap_err[i + 1]) for i in range(2)]
    nld_orders = [np.log2(nld_err[i] / nld_err[i + 1]) for i in range(2)]
    ok = min(lap_orders) >= 1.8 and min(nld_orders) >= 1.8
    _verdict(
        4,
        ok,
        f"laplacian orders {[f'{o:.2f}' for o in lap_orders]}, "
        f"nonlinear orders {[f'{o:.2f}' for o in nld_orders]}",
    )
    assert ok


def test_criterion_5_stability_exchange(geom64, params_std, pipeline):
    semi, mu_star, branch = pipeline
    checks = []
    for mu, expected in [
        (1.05, StabilityFlag.STABLE),
        (1.2, StabilityFlag.STABLE),
        (0.8, StabilityFlag.UNSTABLE),
        (0.95, StabilityFlag.UNSTABLE),
    ]:
        st = constant_state(geom64, 1.0, 0.0)
        J = assemble_jacobian(params_std.with_mu(mu), st.as_vector(), geom64)
        flag = classify_value(leading_eigenvalue(J, coupled_order(geom64)).value)
        checks.append(flag is expected)
    below = [p for p in branch.points if p.mu < mu_star]
    checks.append(len(below) == len(branch.points))
    checks.append(all(p.flag is StabilityFlag.STABLE for p in below))
    # no mu with both branches stable: semitrivial is stable only above mu*,
    # and every stable nontrivial point sits below mu*
    semi_stable = [p.mu for p in semi.points if p.flag is StabilityFlag.STABLE]
    checks.append(all(m > mu_star for m in semi_stable))
    ok = all(checks)
    _verdict(5, ok, f"classification checks {checks}")
    assert ok


def test_criterion_6_sign_relation(pipeline):
    _, mu_star, branch = pipeline
    audit = verify_sign_relation(branch, mu_star)
    amp_max = branch.amplitudes().max()
    ok = (
        audit.n_fail == 0
        and audit.n_pass >= 20
        and amp_max >= 0.5
        and audit.applicable
    )
    _verdict(
        6,
        ok,
        f"{audit.n_pass} audited points pass, 0 fail, amplitude reaches {amp_max:.2f}",
    )
    assert ok


def test_criterion_7_transcritical_slope_sign(pipeline):
    _, _, branch = pipeline
    mus = branch.mus()[:10]
    ok = bool(np.all(np.diff(mus) < 0))
    _verdict(7, ok, f"mu strictly decreasing over first 10 points: {mus.round(4)}")
    assert ok


def test_criterion_8_tangent_structure(geom64, params_std, pipeline):
    _, mu_star, _ = pipeline
    kt = solve_kernel_function(params_std, geom64)
    tangent = np.concatenate([kt.alpha.values, np.ones(geom64.n_omega1)])
    ratios = []
    cos_at_002 = None
    for a in (0.08, 0.04, 0.02):
        point = solve_at_amplitude(params_std, geom64, a, mu_star)
        dev = np.concatenate(
            [params_std.lam - point.state.u.values, point.state.v.values]
        ) / a
        diff = dev - tangent
        ratios.append(float(np.max(np.abs(diff))))
        if a == 0.02:
            cos_at_002 = float(
                dev @ tangent / (np.linalg.norm(dev) * np.linalg.norm(tangent))
            )
    ok = cos_at_002 >= 0.99 and ratios[0] > ratios[1] > ratios[2]
    _verdict(
        8,
        ok,
        f"cosine {cos_at_002:.6f} at amplitude 0.02; "
        f"error ratios {[f'{r:.4f}' for r in ratios]} decrease",
    )
    assert ok


def test_criterion_9_dynamic_consistency(geom64, params_std):
    # extinction above threshold
    t0 = time.perf_counter()
    p_hi = params_std.with_mu(1.2)
    ext = run_to_steady(
        constant_state(geom64, 1.0, 0.05),
        p_hi,
        TransientConfig(dt=0.2, t_end=2000.0, steady_tol=1e-7),
        geom64,
    )
    t_ext = time.perf_counter() - t0
    ok_ext = ext.converged and ext.state.v.inf_norm < 1e-6 and t_ext <= 120.0

    # coexistence below threshold, cross-checked against an independent
    # Newton solve seeded from the kernel tangent at the branch amplitude
    t0 = time.perf_counter()
    p_lo = params_std.with_mu(0.9)
    kt = solve_kernel_function(params_std, geom64)
    seed = constant_state(geom64, 1.0, 0.0).as_vector() + 0.35 * kt.direction(geom64)
    newton = newton_solve(
        SystemState.from_vector(np.maximum(seed, 0.0), geom64.n_omega),
        p_lo,
        NewtonConfig(),
        geom64,
    )
    coex = run_to_steady(
        constant_state(geom64, 1.0, 0.05),
        p_lo,
        TransientConfig(dt=0.2, t_end=3000.0, steady_tol=3e-7),
        geom64,
    )
    t_coex = time.perf_counter() - t0
    gap = float(np.max(np.abs(coex.state.as_vector() - newton.state.as_vector())))
    ok_coex = (
        coex.converged
        and newton.state.v.values.min() > 0.0
        and gap <= 1e-4
        and t_coex <= 120.0
    )
    ok = ok_ext and ok_coex
    _verdict(
        9,
        ok,
        f"extinction |v|={ext.state.v.inf_norm:.2e} in {t_ext:.0f}s; "
        f"coexistence gap {gap:.2e} in {t_coex:.0f}s",
    )
    assert ok


def test_criterion_10_kernel_identities(geom64, params_std, pipeline):
    _, mu_star, _ = pipeline
    kt = solve_kernel_function(params_std, geom64)
    st = constant_state(geom64, 1.0, 0.0)
    J = assemble_jacobian(params_std.with_mu(mu_star), st.as_vector(), geom64)
    d = kt.direction(geom64)
    kernel_residual = float(np.max(np.abs(J @ d)) / np.max(np.abs(d)))
    h2 = geom64.grid.hx * geom64.grid.hy
    mean_gap = abs(
        kt.alpha.values.sum() * h2
        - params_std.b * geom64.area_omega1 / (1.0 + params_std.m * params_std.lam)
    )
    ok = kernel_residual <= 1e-8 and mean_gap <= 1e-8
    _verdict(
        10, ok, f"kernel residual {kernel_residual:.2e}, mean identity gap {mean_gap:.2e}"
    )
    assert ok
