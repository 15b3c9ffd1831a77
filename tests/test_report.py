import pytest

from refugia.continuation import (
    branch_switch,
    continue_branch,
    detect_transcritical,
    trace_semitrivial,
)
from refugia.fields import constant_state
from refugia.geometry import GridSpec, RefugeShape, build_geometry
from refugia.operators import ModelParams
from refugia.report import build_report


@pytest.fixture(scope="module")
def pipeline(geom32):
    params = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    semi = trace_semitrivial(params, (0.8, 1.2), 9, geom32)
    mu_star = detect_transcritical(semi)
    start = branch_switch(mu_star, params, geom32, s0=0.05)
    base = constant_state(geom32, params.lam, 0.0).as_vector()
    direction = (start.state.as_vector() - base, start.mu - mu_star)
    branch = continue_branch(start, direction, n_steps=12, ds=0.025,
                             params=params, geom=geom32)
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
    assert rep.passes()
    text = rep.to_text()
    assert "verdict = PASS" in text
    assert "mu_star_detected" in text


def test_report_ratios_decrease_with_amplitude(pipeline):
    params, geom, semi, mu_star, branch = pipeline
    rep = build_report(semi, branch, mu_star, params, geom)
    amps = [a for a, _ in rep.tangent_ratios]
    ratios = [r for _, r in rep.tangent_ratios]
    assert amps == sorted(amps)
    assert ratios == sorted(ratios)  # first-order error ratio shrinks with s


def test_report_without_nontrivial_branch(pipeline):
    params, geom, semi, mu_star, _ = pipeline
    rep = build_report(semi, None, mu_star, params, geom)
    assert rep.audit_status == "NOT_RUN"
    assert rep.audit is None
    assert rep.tangent_cosine is None
    assert not rep.passes()
    assert "audit_status = NOT_RUN" in rep.to_text()


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
