"""Aggregation of the bifurcation verification into a single report.

Collects the detection gap against the closed-form threshold
c*lam/(1 + m*lam), the alignment of the emerging branch with the kernel
tangent, the sign of the branch's mu-slope, the pointwise sign-relation
audit, and the four-quadrant stability-exchange table. A quadrant that fails
lists its points (mu, gamma, flag, complex pair) in the text report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .continuation import (
    MU_BAND,
    Branch,
    BranchPoint,
    SignRelationAudit,
    verify_sign_relation,
)
from .fields import constant_state
from .geometry import DomainGeometry
from .operators import ModelParams
from .spectral import StabilityFlag
from .steady import solve_kernel_function

#: verify gate: largest relative gap between detected and analytic mu*
GAP_TOL = 1e-3

#: verify gate: smallest cosine between the emerging branch and the kernel tangent
COSINE_MIN = 0.99


@dataclass
class ExchangeCell:
    """One quadrant of the stability-exchange table."""

    branch: str
    side: str  # "mu<mu*" or "mu>mu*"
    n_stable: int
    n_unstable: int
    n_marginal: int
    expected: str
    ok: bool
    points: list[BranchPoint] = field(repr=False)  # the cell's branch points, in branch order

    @property
    def n_points(self) -> int:
        return len(self.points)


@dataclass
class BifurcationReport:
    """The fields after notes need a coexistence branch of two or more points;
    without one they keep their defaults."""

    mu_star_detected: float
    mu_star_analytic: float
    relative_gap: float
    exchange: list[ExchangeCell]
    notes: list[str] = field(default_factory=list)
    tangent_cosine: float | None = None
    tangent_angle_deg: float | None = None
    # (amplitude, first-order error / amplitude)
    tangent_ratios: list[tuple[float, float]] = field(default_factory=list)
    slope_sign_negative: bool | None = None
    mu_strictly_decreasing_points: int = 0
    audit_status: str = "NOT_RUN"  # PASS | FAIL | NOT_RUN
    audit: SignRelationAudit | None = None
    no_both_stable: bool | None = None
    # (amplitude, |u-lam|_inf, |mu-mu*|)
    intersection: list[tuple[float, float, float]] = field(default_factory=list)
    intersection_shrinks: bool | None = None

    def failed_gates(self) -> list[str]:
        """One "name value" entry per failed gate of the verify experiment."""
        cosine = self.tangent_cosine
        gates = [
            ("relative_gap", self.relative_gap, self.relative_gap <= GAP_TOL),
            ("audit_status", self.audit_status, self.audit_status == "PASS"),
            ("slope_sign_negative", self.slope_sign_negative, self.slope_sign_negative is True),
            *((f"exchange[{c.branch} | {c.side}].ok", c.ok, c.ok or c.n_points == 0)
              for c in self.exchange),
            ("no_both_stable", self.no_both_stable, self.no_both_stable is True),
            ("tangent_cosine", _fmt(cosine), cosine is not None and cosine >= COSINE_MIN),
        ]
        return [f"{name} {value}" for name, value, ok in gates if not ok]

    def to_text(self) -> str:
        lines = [
            f"mu_star_detected = {self.mu_star_detected:.17g}",
            f"mu_star_analytic = {self.mu_star_analytic:.17g}",
            f"relative_gap = {self.relative_gap:.17g}",
            f"tangent_cosine = {_fmt(self.tangent_cosine)}",
            f"tangent_angle_deg = {_fmt(self.tangent_angle_deg)}",
            f"slope_sign_negative = {self.slope_sign_negative}",
            f"mu_strictly_decreasing_points = {self.mu_strictly_decreasing_points}",
            f"audit_status = {self.audit_status}",
            f"no_both_stable = {self.no_both_stable}",
            f"intersection_shrinks = {self.intersection_shrinks}",
        ]
        if self.audit is not None:
            lines.append(f"audit.n_pass = {self.audit.n_pass}")
            lines.append(f"audit.n_fail = {self.audit.n_fail}")
            lines.append(f"audit.n_excluded = {self.audit.n_excluded}")
        for i, (amp, ratio) in enumerate(self.tangent_ratios):
            lines.append(f"tangent_ratio.{i} = amplitude {amp:.6g} ratio {ratio:.6g}")
        for i, (amp, udev, mugap) in enumerate(self.intersection):
            lines.append(
                f"intersection.{i} = amplitude {amp:.6g} u_dev {udev:.6g} mu_gap {mugap:.6g}"
            )
        for cell in self.exchange:
            name = f"exchange[{cell.branch} | {cell.side}]"
            lines.append(
                f"{name} = n {cell.n_points} stable {cell.n_stable} unstable {cell.n_unstable} "
                f"marginal {cell.n_marginal} expected {cell.expected} ok {cell.ok}"
            )
            if not cell.ok:  # say which points broke the exchange
                lines += [
                    f"{name}.point.{i} = mu {p.mu:.17g} gamma {p.gamma:.17g} "
                    f"flag {p.flag.value} complex_pair {p.complex_pair}"
                    for i, p in enumerate(cell.points)
                ]
        for i, note in enumerate(self.notes):
            lines.append(f"note.{i} = {note}")
        failed = self.failed_gates()
        lines += [f"failed_gate.{i} = {gate}" for i, gate in enumerate(failed)]
        lines.append(f"verdict = {'FAIL' if failed else 'PASS'}")
        return "\n".join(lines) + "\n"


def _fmt(x):
    return "none" if x is None else f"{x:.17g}"


def _exchange_cell(branch: Branch, side: str, mu_star: float, expected: StabilityFlag):
    if side == "mu<mu*":
        pts = [p for p in branch.points if p.mu < mu_star - MU_BAND]
    else:
        pts = [p for p in branch.points if p.mu > mu_star + MU_BAND]
    counts = {flag: 0 for flag in StabilityFlag}
    for p in pts:
        counts[p.flag] += 1
    ok = all(p.flag is expected for p in pts) if pts else True
    return ExchangeCell(
        branch=branch.label.value,
        side=side,
        n_stable=counts[StabilityFlag.STABLE],
        n_unstable=counts[StabilityFlag.UNSTABLE],
        n_marginal=counts[StabilityFlag.MARGINAL],
        expected=expected.value,
        ok=ok,
        points=pts,
    )


def build_report(
    semitrivial: Branch,
    nontrivial: Branch | None,
    mu_star: float,
    params: ModelParams,
    geom: DomainGeometry,
) -> BifurcationReport:
    """Aggregate detection, tangency, slope, sign-relation, and exchange audits."""
    mu_analytic = params.c * params.lam / (1.0 + params.m * params.lam)
    rep = BifurcationReport(
        mu_star_detected=mu_star,
        mu_star_analytic=mu_analytic,
        relative_gap=abs(mu_star - mu_analytic) / abs(mu_analytic),
        exchange=[
            _exchange_cell(semitrivial, "mu>mu*", mu_star, StabilityFlag.STABLE),
            _exchange_cell(semitrivial, "mu<mu*", mu_star, StabilityFlag.UNSTABLE),
        ],
    )
    if geom.refuge.kind == "empty":
        rep.notes.append(
            "empty refuge: predator domain fills the habitat "
            f"(area {geom.area_omega1:.6g}); the threshold formula has no refuge dependence"
        )
    if nontrivial is None or len(nontrivial.points) < 2:
        return rep

    rep.exchange.append(_exchange_cell(nontrivial, "mu<mu*", mu_star, StabilityFlag.STABLE))
    rep.exchange.append(_exchange_cell(nontrivial, "mu>mu*", mu_star, StabilityFlag.UNSTABLE))

    tan = solve_kernel_function(params, geom).direction(geom)
    base = constant_state(geom, params.lam, 0.0).as_vector()
    by_amp = sorted(nontrivial.points, key=lambda p: p.amplitude)
    smallest = by_amp[0]
    dev = (smallest.state.as_vector() - base) / smallest.amplitude
    rep.tangent_cosine = float(dev @ tan / (np.linalg.norm(dev) * np.linalg.norm(tan)))
    rep.tangent_angle_deg = float(np.degrees(np.arccos(np.clip(rep.tangent_cosine, -1.0, 1.0))))

    for p in by_amp[:3]:
        diff = p.state.as_vector() - (base + p.amplitude * tan)
        rep.tangent_ratios.append((p.amplitude, float(np.max(np.abs(diff)) / p.amplitude)))
        u_dev = float(np.max(np.abs(p.state.u.values - params.lam)))
        rep.intersection.append((p.amplitude, u_dev, abs(p.mu - mu_star)))
    if len(rep.intersection) >= 2:
        udevs = [row[1] for row in rep.intersection]
        gaps = [row[2] for row in rep.intersection]
        rep.intersection_shrinks = all(
            udevs[i] <= udevs[i + 1] and gaps[i] <= gaps[i + 1]
            for i in range(len(rep.intersection) - 1)
        )

    by_s = sorted(nontrivial.points, key=lambda p: p.s)
    mus = [p.mu for p in by_s[: min(10, len(by_s))]]
    rep.mu_strictly_decreasing_points = sum(mus[i + 1] < mus[i] for i in range(len(mus) - 1))
    rep.slope_sign_negative = rep.mu_strictly_decreasing_points == len(mus) - 1 and len(mus) >= 2

    if len(nontrivial.points) >= 5:
        rep.audit = verify_sign_relation(nontrivial, mu_star)
        rep.audit_status = "PASS" if rep.audit.all_pass else "FAIL"

    semi_stable_mus = [p.mu for p in semitrivial.points if p.flag is StabilityFlag.STABLE]
    nontrivial_stable_mus = [p.mu for p in nontrivial.points if p.flag is StabilityFlag.STABLE]
    rep.no_both_stable = all(m > mu_star for m in semi_stable_mus) and all(
        m < mu_star for m in nontrivial_stable_mus
    )
    return rep
