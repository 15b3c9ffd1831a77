"""Run configuration: flat `key = value` text with dotted section prefixes.

The format is line-based: blank lines and `#` comments are ignored, every
other line must read `section.key = value`. Unknown and duplicate keys are
rejected, and so is a float key that reads as nan or inf. All problems are
collected and reported together with their line numbers. A parsed
configuration carries its canonical text, which parses back to an equal
configuration.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .dynamics import TransientConfig
from .errors import ParseError, RefugeTouchesBoundary, ValidationError
from .geometry import REFUGE_KINDS, GridSpec, RefugeShape, check_refuge_clearance
from .operators import ModelParams
from .steady import NewtonConfig

KINDS = ("simulate", "steady", "continue", "bifurcate", "verify")
RANGE_KINDS = ("continue", "bifurcate", "verify")


@dataclass(frozen=True)
class ContinuationSettings:
    ds: float = 0.02
    n_steps: int = 24
    s0: float = 0.05
    amplitude_cap: float | None = None


@dataclass(frozen=True)
class RunConfig:
    kind: str
    seed: int
    grid: GridSpec
    refuge: RefugeShape
    params: ModelParams  # mu holds the scalar value, or mu_min for range kinds
    mu_range: tuple[float, float, int] | None  # (mu_min, mu_max, mu_points)
    newton: NewtonConfig
    transient: TransientConfig
    continuation: ContinuationSettings
    out_dir: str | None
    text: str  # canonical: keys in table order, unset ones left out, floats to 17 digits


_REQUIRED = object()
_BOUNDS = {">": operator.gt, ">=": operator.ge}
_POSITIVE = (">", 0)


#: Every key in canonical order: (key, type, default, single-key lower bound).
#: The default is _REQUIRED when the key must be given and None when it may
#: stay unset; where the field the key fills has a default of its own, that is
#: the key's default. parse_config converts, fills and bounds by this table and
#: writes the canonical text in this order; the rules that involve several
#: keys are in parse_config.
_KEYS = (
    ("experiment.kind", str, _REQUIRED, None),
    ("experiment.seed", int, 0, (">=", 0)),
    ("geometry.nx", int, 64, (">=", 4)),
    ("geometry.ny", int, 64, (">=", 4)),
    ("geometry.lx", float, GridSpec.lx, _POSITIVE),
    ("geometry.ly", float, GridSpec.ly, _POSITIVE),
    ("geometry.refuge.kind", str, "empty", None),
    ("geometry.refuge.center_x", float, None, None),
    ("geometry.refuge.center_y", float, None, None),
    ("geometry.refuge.half_width_x", float, None, _POSITIVE),
    ("geometry.refuge.half_width_y", float, None, _POSITIVE),
    ("geometry.refuge.radius", float, None, _POSITIVE),
    ("params.lambda", float, _REQUIRED, _POSITIVE),
    ("params.m", float, _REQUIRED, (">=", 0)),
    ("params.c", float, _REQUIRED, _POSITIVE),
    ("params.b", float, _REQUIRED, _POSITIVE),
    ("params.mu", float, None, _POSITIVE),
    ("params.mu_min", float, None, _POSITIVE),
    ("params.mu_max", float, None, None),
    ("params.mu_points", int, None, (">=", 2)),
    ("params.d_u", float, ModelParams.d_u, _POSITIVE),
    ("params.d_v", float, ModelParams.d_v, _POSITIVE),
    ("params.r", float, ModelParams.r, _POSITIVE),
    ("solver.newton.tol_residual", float, NewtonConfig.tol_residual, _POSITIVE),
    ("solver.newton.max_iter", int, NewtonConfig.max_iter, (">=", 1)),
    ("solver.transient.dt", float, TransientConfig.dt, _POSITIVE),
    ("solver.transient.t_end", float, TransientConfig.t_end, _POSITIVE),
    ("solver.transient.steady_tol", float, TransientConfig.steady_tol, _POSITIVE),
    ("solver.transient.max_steps", int, TransientConfig.max_steps, (">=", 1)),
    ("solver.continuation.ds", float, ContinuationSettings.ds, _POSITIVE),
    ("solver.continuation.n_steps", int, ContinuationSettings.n_steps, (">=", 1)),
    ("solver.continuation.s0", float, ContinuationSettings.s0, _POSITIVE),
    ("solver.continuation.amplitude_cap", float, ContinuationSettings.amplitude_cap, _POSITIVE),
    ("output.dir", str, None, None),
)

#: refuge kind -> the shape keys it takes; the other shape keys must stay unset
_SHAPE_KEYS = {
    "rectangle": ("geometry.refuge.center_x", "geometry.refuge.center_y",
                  "geometry.refuge.half_width_x", "geometry.refuge.half_width_y"),
    "disc": ("geometry.refuge.center_x", "geometry.refuge.center_y", "geometry.refuge.radius"),
    "empty": (),
}
_RANGE_KEYS = ("params.mu_min", "params.mu_max", "params.mu_points")


def _read(conv, text: str):
    value = conv(text)
    if conv is float and not math.isfinite(value):
        raise ValueError(text)
    return value


def parse_config(text: str, kind_override: str | None = None) -> RunConfig:
    """Parse and fully validate configuration text.

    kind_override fills in experiment.kind when the text omits it (the CLI
    passes its subcommand); if both are present they must agree.
    """
    parse_issues: list[tuple[int, str]] = []
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            parse_issues.append((lineno, f"expected 'key = value', got {body!r}"))
            continue
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            parse_issues.append((lineno, "empty key or value"))
            continue
        if key in raw:
            parse_issues.append((lineno, f"duplicate key {key!r} (first at line {raw[key][0]})"))
            continue
        raw[key] = (lineno, value)
    if parse_issues:
        raise ParseError(parse_issues)
    if kind_override is not None:
        raw.setdefault("experiment.kind", (0, kind_override))

    def line_of(key: str) -> int:
        return raw[key][0] if key in raw else 0

    known = {row[0] for row in _KEYS}
    issues = [(line_of(key), f"unknown key {key!r}") for key in raw if key not in known]
    v: dict[str, object] = {}
    for key, conv, default, bound in _KEYS:
        if key in raw:
            try:
                value = _read(conv, raw[key][1])
            except ValueError:
                what = "a finite float" if conv is float else conv.__name__
                issues.append((line_of(key), f"{key}: cannot read {raw[key][1]!r} as {what}"))
                continue
        elif default is _REQUIRED:
            issues.append((0, f"missing required key {key!r}"))
            continue
        else:
            value = default
        if bound is not None and value is not None and not _BOUNDS[bound[0]](value, bound[1]):
            issues.append((line_of(key), f"{key} must be {bound[0]} {bound[1]}, got {value!r}"))
        v[key] = value

    def given_iff(keys: tuple[str, ...], wanted: tuple[str, ...], context: str) -> None:
        """Each of keys must be given exactly when it is in wanted."""
        for key in keys:
            if key in wanted and key not in raw:
                issues.append((0, f"{key} required for {context}"))
            elif key in raw and key not in wanted:
                issues.append((line_of(key), f"{key} does not apply to {context}"))

    kind = v.get("experiment.kind")
    if kind is not None and kind not in KINDS:
        issues.append((line_of("experiment.kind"), f"experiment.kind must be one of {KINDS}"))
    if kind_override not in (None, kind):
        issues.append((line_of("experiment.kind"),
                       f"experiment.kind = {kind!r} conflicts with requested {kind_override!r}"))

    rkind = v.get("geometry.refuge.kind")
    if rkind in _SHAPE_KEYS:
        shape_keys = _SHAPE_KEYS["rectangle"] + ("geometry.refuge.radius",)
        given_iff(shape_keys, _SHAPE_KEYS[rkind], f"geometry.refuge.kind = {rkind}")
    else:
        issues.append((line_of("geometry.refuge.kind"),
                       f"geometry.refuge.kind must be one of {REFUGE_KINDS}"))

    if kind in RANGE_KINDS:
        if "params.mu" in raw:
            issues.append((line_of("params.mu"),
                           f"kind={kind} needs a mu range; scalar params.mu rejected"))
        given_iff(_RANGE_KEYS, _RANGE_KEYS, f"kind={kind}")
    elif kind in KINDS:
        given_iff(("params.mu",) + _RANGE_KEYS, ("params.mu",), f"kind={kind}")
    mu_min, mu_max = v.get("params.mu_min"), v.get("params.mu_max")
    if mu_min is not None and mu_max is not None and not mu_max > mu_min:
        issues.append((line_of("params.mu_max"), "params.mu_max must exceed params.mu_min"))

    lam, s0 = v.get("params.lambda"), v.get("solver.continuation.s0")
    if lam is not None and s0 is not None and lam > 0 and s0 > 0.1 * lam:
        issues.append((line_of("solver.continuation.s0"),
                       f"solver.continuation.s0 must be <= 0.1*params.lambda = {0.1 * lam:g}"))

    def pair(kx: str, ky: str) -> tuple[float, float] | None:
        return None if v[kx] is None else (v[kx], v[ky])

    if not issues:
        # the refuge must fit the grid by build_geometry's rule, which needs
        # every geometry key valid
        grid = GridSpec(v["geometry.nx"], v["geometry.ny"], v["geometry.lx"], v["geometry.ly"])
        refuge = RefugeShape(
            rkind,
            center=pair("geometry.refuge.center_x", "geometry.refuge.center_y"),
            half_width=pair("geometry.refuge.half_width_x", "geometry.refuge.half_width_y"),
            radius=v["geometry.refuge.radius"],
        )
        try:
            check_refuge_clearance(grid, refuge)
        except RefugeTouchesBoundary as exc:
            issues.append((line_of("geometry.refuge.kind"),
                           f"geometry.refuge must stay clear of the habitat boundary: {exc}"))
    if issues:
        raise ValidationError(sorted(issues))

    mu = v["params.mu"]
    text = "".join(f"{key} = {v[key]:.17g}\n" if conv is float else f"{key} = {v[key]}\n"
                   for key, conv, _, _ in _KEYS if v[key] is not None)
    return RunConfig(
        kind=kind,
        seed=v["experiment.seed"],
        grid=grid,
        refuge=refuge,
        params=ModelParams(v["params.lambda"], v["params.m"], v["params.c"], v["params.b"],
                           mu if mu is not None else mu_min,
                           v["params.d_u"], v["params.d_v"], v["params.r"]),
        mu_range=(mu_min, mu_max, v["params.mu_points"]) if kind in RANGE_KINDS else None,
        newton=NewtonConfig(v["solver.newton.tol_residual"], v["solver.newton.max_iter"]),
        transient=TransientConfig(v["solver.transient.dt"], v["solver.transient.t_end"],
                                  v["solver.transient.steady_tol"],
                                  v["solver.transient.max_steps"]),
        continuation=ContinuationSettings(v["solver.continuation.ds"],
                                          v["solver.continuation.n_steps"],
                                          v["solver.continuation.s0"],
                                          v["solver.continuation.amplitude_cap"]),
        out_dir=v["output.dir"],
        text=text,
    )

