import dataclasses

import pytest

from refugia.continuation import (
    Branch,
    branch_switch,
    continue_branch,
    detect_transcritical,
    trace_semitrivial,
)
from refugia.fields import constant_state
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import ModelParams
from refugia.report import BifurcationReport, build_report
from refugia.spectral import StabilityFlag


@pytest.fixture(scope="module")
def pipeline(geom32):
    params = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    semi = trace_semitrivial(params, (0.8, 1.2), 9, geom32)
    mu_star = detect_transcritical(semi)
    start, lu = branch_switch(mu_star, params, geom32, s0=0.05)
    base = constant_state(geom32, params.lam, 0.0).as_vector()
    direction = (start.x - base, start.mu - mu_star)
    branch = continue_branch(start, direction, n_steps=12, ds=0.025,
                             params=params, geom=geom32, lu=lu)
    return params, geom32, semi, mu_star, branch


def test_report_full_pipeline(pipeline):
    params, geom, semi, mu_star, branch = pipeline
    rep = build_report(semi, branch, mu_star, params, geom)
    assert rep.relative_gap <= 1e-3
    assert rep.slope_sign_negative
    assert rep.audit_status == "PASS"
    assert rep.tangent_cosine >= 0.99
    assert rep.no_both_stable
    assert rep.intersection_shrinks
    assert not rep.failed_gates()
    text = rep.to_text()
    assert "verdict = PASS" in text
    assert "mu_star_detected" in text
    assert "\nnontrivial_end = n_steps\n" in text


def test_report_ratios_decrease_with_amplitude(pipeline):
    params, geom, semi, mu_star, branch = pipeline
    rep = build_report(semi, branch, mu_star, params, geom)
    amps = [a for a, _ in rep.tangent_ratios]
    ratios = [r for _, r in rep.tangent_ratios]
    assert amps == sorted(amps)
    assert ratios == sorted(ratios)  # first-order error ratio shrinks with s


def test_report_windows(pipeline):
    # the tangent and intersection lines read the three smallest-amplitude
    # points, and the slope sign the first ten points by arclength
    params, geom, semi, mu_star, branch = pipeline
    assert len(branch.points) >= 11
    text = build_report(semi, branch, mu_star, params, geom).to_text()
    for name in ("tangent_ratio", "intersection"):
        assert [line.split(" = ")[0] for line in text.splitlines()
                if line.startswith(name + ".")] == [f"{name}.{i}" for i in range(3)]
    assert "\nmu_strictly_decreasing_points = 9\n" in text


def test_report_without_nontrivial_branch(pipeline):
    params, geom, semi, mu_star, _ = pipeline
    rep = build_report(semi, None, mu_star, params, geom)
    assert rep.audit_status == "NOT_RUN"
    assert rep.audit is None
    assert rep.tangent_cosine is None
    assert rep.failed_gates()
    assert "audit_status = NOT_RUN" in rep.to_text()
    assert "\nnontrivial_end = None\n" in rep.to_text()


def test_report_on_a_two_point_branch(pipeline):
    # the smallest branch past build_report's early return: every
    # intersection and slope field is set, the sign-relation audit is not run
    params, geom, semi, mu_star, branch = pipeline
    short = Branch(branch.label, branch.points[:2])
    rep = build_report(semi, short, mu_star, params, geom)
    assert len(rep.intersection) == 2
    assert isinstance(rep.intersection_shrinks, bool)
    assert isinstance(rep.slope_sign_negative, bool)
    assert rep.audit_status == "NOT_RUN"


def test_report_names_its_failed_gates(pipeline):
    params, geom, semi, mu_star, branch = pipeline
    rep = build_report(semi, None, mu_star, params, geom)
    failed = rep.failed_gates()
    assert failed == [
        "audit_status NOT_RUN",
        "slope_sign_negative None",
        "no_both_stable None",
        "tangent_cosine none",
    ]
    text = rep.to_text()
    assert "failed_gate.0 = audit_status NOT_RUN\n" in text
    assert text.endswith("failed_gate.3 = tangent_cosine none\nverdict = FAIL\n")
    assert "failed_gate" not in build_report(semi, branch, mu_star, params, geom).to_text()


def test_report_notes_empty_refuge():
    geom = build_geometry(GridSpec(16, 16), RefugeShape.empty())
    params = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    semi = trace_semitrivial(params, (0.8, 1.2), 5, geom)
    mu_star = detect_transcritical(semi)
    rep = build_report(semi, None, mu_star, params, geom)
    assert mu_star == pytest.approx(1.0, abs=1e-9)  # threshold has no refuge dependence
    assert any("empty refuge" in note for note in rep.notes)


def test_exchange_table_quadrants(pipeline):
    params, geom, semi, mu_star, branch = pipeline
    rep = build_report(semi, branch, mu_star, params, geom)
    cells = {(c.branch, c.side): c for c in rep.exchange}
    assert cells[("semitrivial", "mu>mu*")].n_stable == cells[("semitrivial", "mu>mu*")].n_points
    assert cells[("semitrivial", "mu<mu*")].n_unstable == cells[("semitrivial", "mu<mu*")].n_points
    assert cells[("nontrivial", "mu<mu*")].n_stable == cells[("nontrivial", "mu<mu*")].n_points
    assert cells[("nontrivial", "mu>mu*")].n_points == 0
    assert all(c.ok for c in rep.exchange)


def test_failing_exchange_cell_lists_its_points(pipeline):
    # detected mu* moved up by 0.1: the predator-free points between the true
    # and the moved threshold are stable on the side expected unstable
    params, geom, semi, mu_star, branch = pipeline
    rep = build_report(semi, branch, mu_star + 0.1, params, geom)
    failing = [c for c in rep.exchange if not c.ok]
    assert [(c.branch, c.side) for c in failing] == [("semitrivial", "mu<mu*")]
    cell = failing[0]
    text = rep.to_text()
    name = "exchange[semitrivial | mu<mu*]"
    assert f"failed_gate.1 = {name}.ok False\n" in text  # after relative_gap
    for i, p in enumerate(cell.points):
        assert (
            f"{name}.point.{i} = mu {p.mu:.17g} gamma {p.gamma:.17g} "
            f"flag {p.flag.value} complex_pair {p.complex_pair}\n"
        ) in text
    assert f"{name}.point.{cell.n_points} " not in text
    assert text.count(".point.") == cell.n_points  # passing cells list none
    assert ".point." not in build_report(semi, branch, mu_star, params, geom).to_text()


def test_exchange_band_is_mu_band_wide(pipeline):
    # a stable coexistence point 5e-3 above mu* breaks the exchange; 5e-5
    # above it, inside MU_BAND = 1e-4, it lies in neither quadrant
    params, geom, semi, mu_star, branch = pipeline
    for offset, n_points in ((5e-3, 1), (5e-5, 0)):
        moved = dataclasses.replace(branch.points[-1], mu=mu_star + offset, gamma=-0.01,
                                    flag=StabilityFlag.STABLE)
        short = Branch(branch.label, branch.points[:-1] + [moved])
        rep = build_report(semi, short, mu_star, params, geom)
        above = next(c for c in rep.exchange if (c.branch, c.side) == ("nontrivial", "mu>mu*"))
        assert above.n_points == n_points
        assert above.ok is (n_points == 0)


def test_tangent_gate_is_cosine_min():
    # with every other gate passing, a tangent cosine of 0.98 fails the
    # verdict and 0.995 passes it (COSINE_MIN = 0.99)
    for cosine, failed in ((0.98, ["tangent_cosine 0.97999999999999998"]), (0.995, [])):
        rep = BifurcationReport(mu_star_detected=1.0, mu_star_analytic=1.0, relative_gap=0.0,
                                exchange=[], tangent_cosine=cosine, slope_sign_negative=True,
                                audit_status="PASS", no_both_stable=True)
        assert rep.failed_gates() == failed
