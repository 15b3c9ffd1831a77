"""Aggregation of the bifurcation verification into a single report.

Collects the detection gap against the closed-form threshold
c*lam/(1 + m*lam), the alignment of the emerging branch with the kernel
tangent, the sign of the branch's mu-slope, the pointwise sign-relation
audit, and the four-quadrant stability-exchange table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .continuation import (
    MU_BAND,
    Branch,
    SignRelationAudit,
    verify_sign_relation,
)
from .fields import constant_state
from .geometry import DomainGeometry
from .operators import ModelParams
from .spectral import StabilityFlag
from .steady import KernelTangent, solve_kernel_function

#: verify gate: largest relative gap between detected and analytic mu*
GAP_TOL = 1e-3

#: verify gate: smallest cosine between the emerging branch and the kernel tangent
COSINE_MIN = 0.99


@dataclass
class ExchangeCell:
    """One quadrant of the stability-exchange table."""

    branch: str
    side: str  # "mu<mu*" or "mu>mu*"
    n_points: int
    n_stable: int
    n_unstable: int
    n_marginal: int
    expected: str
    ok: bool


@dataclass
class BifurcationReport:
    mu_star_detected: float
    mu_star_analytic: float
    relative_gap: float
    tangent_cosine: float | None
    tangent_angle_deg: float | None
    tangent_ratios: list[tuple[float, float]]  # (amplitude, first-order error / amplitude)
    slope_sign_negative: bool | None
    mu_strictly_decreasing_points: int
    audit_status: str  # PASS | FAIL | NOT_RUN
    audit: SignRelationAudit | None
    exchange: list[ExchangeCell]
    no_both_stable: bool | None
    intersection: list[tuple[float, float, float]]  # (amplitude, |u-lam|_inf, |mu-mu*|)
    intersection_shrinks: bool | None
    notes: list[str] = field(default_factory=list)

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

    def passes(self) -> bool:
        """Gate used by the verify experiment."""
        return not self.failed_gates()

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
            lines.append(
                f"exchange[{cell.branch} | {cell.side}] = "
                f"n {cell.n_points} stable {cell.n_stable} unstable {cell.n_unstable} "
                f"marginal {cell.n_marginal} expected {cell.expected} ok {cell.ok}"
            )
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
        n_points=len(pts),
        n_stable=counts[StabilityFlag.STABLE],
        n_unstable=counts[StabilityFlag.UNSTABLE],
        n_marginal=counts[StabilityFlag.MARGINAL],
        expected=expected.value,
        ok=ok,
    )


def build_report(
    semitrivial: Branch,
    nontrivial: Branch | None,
    mu_star: float,
    params: ModelParams,
    geom: DomainGeometry,
    tangent: KernelTangent | None = None,
) -> BifurcationReport:
    """Aggregate detection, tangency, slope, sign-relation, and exchange audits.

    tangent is solve_kernel_function(params, geom), solved here when absent
    and needed."""
    mu_analytic = params.c * params.lam / (1.0 + params.m * params.lam)
    gap = abs(mu_star - mu_analytic) / abs(mu_analytic)

    notes = []
    if geom.refuge.kind == "empty":
        notes.append(
            "empty refuge: predator domain fills the habitat "
            f"(area {geom.area_omega1:.6g}); the threshold formula has no refuge dependence"
        )

    exchange = [
        _exchange_cell(semitrivial, "mu>mu*", mu_star, StabilityFlag.STABLE),
        _exchange_cell(semitrivial, "mu<mu*", mu_star, StabilityFlag.UNSTABLE),
    ]

    tangent_cosine = None
    tangent_angle = None
    tangent_ratios: list[tuple[float, float]] = []
    slope_negative = None
    n_decreasing = 0
    audit = None
    audit_status = "NOT_RUN"
    no_both_stable = None
    intersection: list[tuple[float, float, float]] = []
    intersection_shrinks = None

    if nontrivial is not None and len(nontrivial.points) >= 2:
        exchange.append(_exchange_cell(nontrivial, "mu<mu*", mu_star, StabilityFlag.STABLE))
        exchange.append(_exchange_cell(nontrivial, "mu>mu*", mu_star, StabilityFlag.UNSTABLE))

        kt = tangent if tangent is not None else solve_kernel_function(params, geom)
        tan = np.concatenate([kt.alpha.values, np.ones(geom.n_omega1)])
        base = constant_state(geom, params.lam, 0.0).as_vector()
        by_amp = sorted(nontrivial.points, key=lambda p: p.amplitude)
        smallest = by_amp[0]
        dev = np.concatenate([params.lam - smallest.state.u.values, smallest.state.v.values])
        dev /= smallest.amplitude
        tangent_cosine = float(dev @ tan / (np.linalg.norm(dev) * np.linalg.norm(tan)))
        tangent_angle = float(np.degrees(np.arccos(np.clip(tangent_cosine, -1.0, 1.0))))

        for p in by_amp[:3]:
            diff = p.state.as_vector() - (base + p.amplitude * kt.direction(geom))
            tangent_ratios.append((p.amplitude, float(np.max(np.abs(diff)) / p.amplitude)))
            u_dev = float(np.max(np.abs(p.state.u.values - params.lam)))
            intersection.append((p.amplitude, u_dev, abs(p.mu - mu_star)))
        if len(intersection) >= 2:
            udevs = [row[1] for row in intersection]
            gaps = [row[2] for row in intersection]
            intersection_shrinks = all(
                udevs[i] <= udevs[i + 1] and gaps[i] <= gaps[i + 1]
                for i in range(len(intersection) - 1)
            )

        by_s = sorted(nontrivial.points, key=lambda p: p.s)
        mus = [p.mu for p in by_s[: min(10, len(by_s))]]
        n_decreasing = sum(mus[i + 1] < mus[i] for i in range(len(mus) - 1))
        slope_negative = n_decreasing == len(mus) - 1 and len(mus) >= 2

        if len(nontrivial.points) >= 5:
            audit = verify_sign_relation(nontrivial, mu_star)
            audit_status = "PASS" if audit.all_pass else "FAIL"

        semi_stable_mus = [p.mu for p in semitrivial.points if p.flag is StabilityFlag.STABLE]
        nontrivial_stable_mus = [p.mu for p in nontrivial.points if p.flag is StabilityFlag.STABLE]
        no_both_stable = all(m > mu_star for m in semi_stable_mus) and all(
            m < mu_star for m in nontrivial_stable_mus
        )

    return BifurcationReport(
        mu_star_detected=mu_star,
        mu_star_analytic=mu_analytic,
        relative_gap=gap,
        tangent_cosine=tangent_cosine,
        tangent_angle_deg=tangent_angle,
        tangent_ratios=tangent_ratios,
        slope_sign_negative=slope_negative,
        mu_strictly_decreasing_points=n_decreasing,
        audit_status=audit_status,
        audit=audit,
        exchange=exchange,
        no_both_stable=no_both_stable,
        intersection=intersection,
        intersection_shrinks=intersection_shrinks,
        notes=notes,
    )
