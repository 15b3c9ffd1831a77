"""Standalone SVG bifurcation diagram: amplitude against mu.

Each branch is drawn as one neutral polyline backbone; runs of constant
stability are overlaid as path elements, solid for stable and dashed for
unstable. The bifurcation point, when known, is a single circle marker on
the amplitude-zero line.
"""

from __future__ import annotations

import itertools

from .continuation import Branch
from .errors import EmptyBranchList
from .spectral import StabilityFlag

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 55

_STYLE = {
    StabilityFlag.STABLE: 'class="stable" stroke="#1f4f9f" stroke-width="2.5" fill="none"',
    StabilityFlag.UNSTABLE: (
        'class="unstable" stroke="#b03030" stroke-width="2.5" '
        'stroke-dasharray="7 5" fill="none"'
    ),
    StabilityFlag.MARGINAL: (
        'class="marginal" stroke="#777777" stroke-width="2.5" '
        'stroke-dasharray="2 4" fill="none"'
    ),
}


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def emit_plot(branches: list[Branch], report, path) -> None:
    """Write the diagram for the given branches; report (when present)
    supplies the bifurcation marker position. Refuses an empty branch list
    before any output is attempted."""
    branches = [b for b in branches if b.points]
    if not branches:
        raise EmptyBranchList("nothing to plot: no branches with points")

    mus = [p.mu for b in branches for p in b.points]
    amps = [p.amplitude for b in branches for p in b.points]
    mu_star = getattr(report, "mu_star_detected", None) if report is not None else None
    if mu_star is not None:
        mus.append(mu_star)
    mu_lo, mu_hi = min(mus), max(mus)
    pad_mu = 0.05 * (mu_hi - mu_lo or 1.0)
    mu_lo, mu_hi = mu_lo - pad_mu, mu_hi + pad_mu
    amp_hi = max(max(amps), 1e-12)
    amp_lo = -0.05 * amp_hi
    amp_hi = 1.1 * amp_hi

    def sx(mu: float) -> float:
        return _ML + (mu - mu_lo) / (mu_hi - mu_lo) * (_W - _ML - _MR)

    def sy(amp: float) -> float:
        return _H - _MB - (amp - amp_lo) / (amp_hi - amp_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.1f}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">bifurcation diagram</text>',
    ]
    # axes and ticks
    x0, y0 = _ML, _H - _MB
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{_W - _MR}" y2="{y0}" stroke="black"/>'
    )
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{_MT}" stroke="black"/>')
    for t in _ticks(mu_lo, mu_hi):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{y0}" x2="{sx(t):.2f}" y2="{y0 + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(t):.2f}" y="{y0 + 20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{t:.4g}</text>'
        )
    for t in _ticks(max(amp_lo, 0.0), amp_hi):
        parts.append(
            f'<line x1="{x0 - 5}" y1="{sy(t):.2f}" x2="{x0}" y2="{sy(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 9}" y="{sy(t) + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{(_W + _ML - _MR)/2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">mu</text>'
    )
    parts.append(
        f'<text x="18" y="{(_H + _MT - _MB)/2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {(_H + _MT - _MB)/2:.1f})">'
        f"amplitude</text>"
    )

    # one backbone polyline per branch
    for b in branches:
        pts = " ".join(f"{sx(p.mu):.2f},{sy(p.amplitude):.2f}" for p in b.points)
        parts.append(
            f'<polyline class="branch-{b.label.value}" points="{pts}" '
            f'stroke="#bbbbbb" stroke-width="1" fill="none"/>'
        )

    # stability overlays: one path per run of constant flag (needs >= 2 points)
    for b in branches:
        for flag, group in itertools.groupby(b.points, key=lambda p: p.flag):
            run = list(group)
            if len(run) >= 2:
                d = "M " + " L ".join(f"{sx(p.mu):.2f} {sy(p.amplitude):.2f}" for p in run)
                parts.append(f'<path d="{d}" {_STYLE[flag]}/>')

    if mu_star is not None:
        parts.append(
            f'<circle class="bifurcation-marker" cx="{sx(mu_star):.2f}" cy="{sy(0.0):.2f}" '
            f'r="5" fill="white" stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{sx(mu_star):.2f}" y="{sy(0.0) - 10:.2f}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">mu* = {mu_star:.6g}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
