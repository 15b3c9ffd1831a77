import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from refugia import cli
from refugia.config import _KEYS, KINDS, RANGE_KINDS, REFUGE_KINDS, parse_config
from refugia.errors import ParseError, ValidationError
from refugia.geometry import GridSpec

README = Path(__file__).resolve().parents[1] / "README.md"

RECT_STEADY = {
    "experiment.kind": "steady",
    "geometry.nx": "16",
    "geometry.ny": "16",
    "geometry.refuge.kind": "rectangle",
    "geometry.refuge.center_x": "0.5",
    "geometry.refuge.center_y": "0.5",
    "geometry.refuge.half_width_x": "0.125",
    "geometry.refuge.half_width_y": "0.125",
    "params.lambda": "1.0",
    "params.m": "1.0",
    "params.c": "2.0",
    "params.b": "1.0",
    "params.mu": "1.2",
}
DISC_STEADY = {
    **{k: v for k, v in RECT_STEADY.items() if "half_width" not in k},
    "geometry.refuge.kind": "disc",
    "geometry.refuge.radius": "0.2",
}


VERIFY = {**{k: v for k, v in RECT_STEADY.items() if k != "params.mu"},
          "experiment.kind": "verify", "params.mu_min": "0.8", "params.mu_max": "1.2",
          "params.mu_points": "9"}


def _text(key: str, value: str) -> tuple[str, int]:
    """A config with key set to value, and the line that key is on.

    It is the verify config when key belongs to the mu range, and otherwise a
    steady one, whose refuge is a disc when key is its radius and a
    rectangle otherwise."""
    base = (VERIFY if key in ("params.mu_min", "params.mu_points")
            else DISC_STEADY if key == "geometry.refuge.radius" else RECT_STEADY)
    lines = [f"{k} = {v}" for k, v in {**base, key: value}.items()]
    return "\n".join(lines) + "\n", 1 + [ln.split(" = ")[0] for ln in lines].index(key)


def _assert_rejected_on_line(text: str, key: str, lineno: int, bound: str | None = None):
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    hits = [msg for ln, msg in err.value.issues if ln == lineno and key in msg]
    assert hits, err.value.issues
    if bound is not None:
        assert any(bound in msg for msg in hits), hits


@pytest.mark.parametrize(
    "key,value",
    [
        ("geometry.refuge.radius", "-0.1"),
        ("geometry.refuge.radius", "0"),
        ("geometry.refuge.half_width_x", "0"),
        ("geometry.refuge.half_width_y", "-0.01"),
    ],
)
def test_bad_refuge_size_is_a_validation_issue(key, value):
    text, lineno = _text(key, value)
    _assert_rejected_on_line(text, key, lineno, "> 0")


def test_cli_reports_bad_refuge_size_without_traceback(tmp_path, capsys):
    text, lineno = _text("geometry.refuge.radius", "-0.1")
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"line {lineno}: geometry.refuge.radius must be > 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,value",
    [
        ("params.lambda", "inf"),
        ("params.mu", "inf"),
        ("params.mu", "-inf"),
        ("solver.transient.dt", "inf"),
        ("solver.transient.t_end", "nan"),
        ("solver.transient.t_end", "-5"),
        ("solver.transient.t_end", "0"),
        ("geometry.refuge.center_x", "nan"),
        ("experiment.seed", "-1"),
        ("solver.newton.max_iter", "1"),  # bordered_newton stops on two residuals
        # each value at its key's bound
        ("geometry.nx", "3"),
        ("geometry.ny", "3"),
        ("geometry.lx", "0"),
        ("geometry.ly", "0"),
        ("params.lambda", "0"),
        ("params.c", "0"),
        ("params.mu", "0"),
        ("params.mu_min", "0"),
        ("params.mu_points", "1"),  # one sample cannot bracket mu*: NoCrossing
        ("solver.newton.tol_residual", "0"),
        ("solver.transient.dt", "0"),  # TransientConfig's ValueError would escape
        ("solver.transient.steady_tol", "0"),
        ("solver.continuation.ds", "0"),  # continue_branch would stall at once
        ("solver.continuation.n_steps", "0"),  # a one-point branch
        ("solver.continuation.s0", "0"),
        ("solver.continuation.amplitude_cap", "0"),
    ],
)
def test_non_finite_and_out_of_range_values_rejected(key, value):
    text, lineno = _text(key, value)
    _assert_rejected_on_line(text, key, lineno)


@pytest.mark.parametrize("base,edits,key,error,message", [
    (RECT_STEADY, {"params.m": ""}, "params.m", ParseError, "empty key or value"),
    (RECT_STEADY, {"params.c": None}, None, ValidationError, "missing required key 'params.c'"),
    (RECT_STEADY, {"geometry.refuge.half_width_y": None}, None, ValidationError,
     "geometry.refuge.half_width_y required for geometry.refuge.kind = rectangle"),
    (RECT_STEADY, {"geometry.refuge.radius": "0.1"}, "geometry.refuge.radius", ValidationError,
     "geometry.refuge.radius does not apply to geometry.refuge.kind = rectangle"),
    (RECT_STEADY, {"experiment.kind": "sweep"}, "experiment.kind", ValidationError,
     f"experiment.kind must be one of {KINDS}"),
    (RECT_STEADY, {"geometry.refuge.kind": "triangle"}, "geometry.refuge.kind", ValidationError,
     f"geometry.refuge.kind must be one of {REFUGE_KINDS}"),
    (VERIFY, {"params.mu_max": "0.8"}, "params.mu_max", ValidationError,
     "params.mu_max must exceed params.mu_min"),
    (RECT_STEADY, {"solver.continuation.s0": "0.2"}, "solver.continuation.s0", ValidationError,
     "solver.continuation.s0 must be <= 0.1*params.lambda = 0.1"),
    # the transient run steps the steady residual: no diffusivity, logistic
    # rate or step budget of its own
    *[(RECT_STEADY, {key: value}, key, ValidationError, f"unknown key {key!r}")
      for key, value in (("params.d_u", "1.0"), ("params.d_v", "1.0"), ("params.r", "1.0"),
                         ("solver.transient.max_steps", "100000"))],
], ids=["empty-value", "missing-key", "required-for", "does-not-apply", "unknown-kind",
        "unknown-refuge", "empty-mu-range", "large-s0", "unknown-d_u", "unknown-d_v",
        "unknown-r", "unknown-max_steps"])
def test_each_rule_reports_its_message_and_line(base, edits, key, error, message):
    # edits sets keys (appending new ones) or, with None, drops them; the one
    # reported problem names key's line, or line 0 when key is None
    cfg = {k: v for k, v in {**base, **edits}.items() if v is not None}
    text = "".join(f"{k} = {v}\n" for k, v in cfg.items())
    with pytest.raises(error) as err:
        parse_config(text)
    lineno = 0 if key is None else 1 + list(cfg).index(key)
    assert err.value.issues == [(lineno, message)]


def _refuge_outside_habitat() -> tuple[str, int]:
    """The 16-cell disc steady config with the disc moved out of the unit box."""
    cfg = {**DISC_STEADY, "geometry.refuge.center_x": "5", "geometry.refuge.radius": "0.1"}
    lines = [f"{k} = {v}" for k, v in cfg.items()]
    return "\n".join(lines) + "\n", 1 + list(cfg).index("geometry.refuge.kind")


def test_refuge_outside_habitat_is_a_validation_issue():
    text, lineno = _refuge_outside_habitat()
    _assert_rejected_on_line(text, "geometry.refuge", lineno, "margin -4.1 <= 2h = 0.125")


def test_cli_reports_refuge_outside_habitat_without_output(tmp_path, capsys):
    text, lineno = _refuge_outside_habitat()
    path = tmp_path / "outside.cfg"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"line {lineno}: geometry.refuge must stay clear of the habitat boundary" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _positive(**kw):
    return st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False, **kw)


def _literal(value) -> str:
    return value if isinstance(value, str) else repr(value)


def _refuge_inside(data, refuge: str, lx: float, ly: float, h: float) -> dict[str, float]:
    """Shape keys of a refuge that keeps 3h from the boundary of [0, lx] x [0, ly].

    The centre lies in the middle half of the box [3h, l - 3h] on each axis,
    and the refuge reaches at most a quarter of that box's width from it."""
    keys, reach = {}, []
    for axis, length in (("x", lx), ("y", ly)):
        lo, hi = 3.0 * h, length - 3.0 * h
        quarter = 0.25 * (hi - lo)
        keys[f"geometry.refuge.center_{axis}"] = data.draw(
            st.floats(min_value=lo + quarter, max_value=hi - quarter), label=f"center_{axis}"
        )
        reach.append(quarter)
    if refuge == "rectangle":
        keys["geometry.refuge.half_width_x"] = data.draw(_positive(max_value=reach[0]))
        keys["geometry.refuge.half_width_y"] = data.draw(_positive(max_value=reach[1]))
    else:
        keys["geometry.refuge.radius"] = data.draw(_positive(max_value=min(reach)))
    return keys


@pytest.mark.parametrize("refuge", REFUGE_KINDS)
@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_render_parse_round_trip(kind, refuge, data):
    """Random valid configs: parse(render(cfg)) == cfg and render is a fixed point."""
    lam = data.draw(st.floats(min_value=1e-6, max_value=1e6), label="lambda")
    given_: dict[str, object] = {
        "experiment.kind": kind,
        "params.lambda": lam,
        "params.m": data.draw(st.floats(min_value=0.0, allow_infinity=False)),
        "params.c": data.draw(_positive()),
        "params.b": data.draw(_positive()),
    }
    optional = {
        "experiment.seed": st.integers(min_value=0, max_value=2**63),
        "geometry.nx": st.integers(min_value=4, max_value=4096),
        "geometry.ny": st.integers(min_value=4, max_value=4096),
        "geometry.lx": _positive(),
        "geometry.ly": _positive(),
        "solver.newton.tol_residual": _positive(),
        "solver.newton.max_iter": st.integers(min_value=2, max_value=10**6),
        "solver.transient.dt": _positive(),
        "solver.transient.t_end": _positive(),
        "solver.transient.steady_tol": _positive(),
        "solver.continuation.ds": _positive(),
        "solver.continuation.n_steps": st.integers(min_value=1, max_value=10**4),
        "solver.continuation.amplitude_cap": _positive(),
        "output.dir": st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True),
    }
    if refuge != "empty":
        # the refuge must keep more than 2h clear of the habitat boundary (h the
        # larger cell spacing), so the grid is fine and of moderate aspect ratio
        optional.update({
            "geometry.nx": st.integers(min_value=32, max_value=4096),
            "geometry.ny": st.integers(min_value=32, max_value=4096),
            "geometry.lx": st.floats(min_value=0.5, max_value=1.5),
            "geometry.ly": st.floats(min_value=0.5, max_value=1.5),
        })
    for key, strategy in optional.items():
        value = data.draw(st.none() | strategy, label=key)
        if value is not None:
            given_[key] = value
    # the default s0 = 0.05 is only valid for lambda >= 0.5
    if lam < 0.5 or data.draw(st.booleans(), label="give s0"):
        given_["solver.continuation.s0"] = data.draw(_positive(max_value=0.1 * lam), label="s0")
    if refuge != "empty" or data.draw(st.booleans(), label="give refuge kind"):
        given_["geometry.refuge.kind"] = refuge
    if refuge != "empty":
        defaults = {key: default for key, _, default, *_ in _KEYS}
        nx, ny, lx, ly = (given_.get(key, defaults[key]) for key in
                          ("geometry.nx", "geometry.ny", "geometry.lx", "geometry.ly"))
        grid = GridSpec(nx, ny, lx, ly)
        given_.update(_refuge_inside(data, refuge, lx, ly, max(grid.hx, grid.hy)))
    if kind in RANGE_KINDS:
        lo, hi = sorted(data.draw(st.lists(_positive(), min_size=2, max_size=2, unique=True)))
        given_["params.mu_min"], given_["params.mu_max"] = lo, hi
        given_["params.mu_points"] = data.draw(st.integers(min_value=2, max_value=1000))
    else:
        given_["params.mu"] = data.draw(_positive())

    order = data.draw(st.permutations(sorted(given_)), label="line order")
    cfg = parse_config("".join(f"{key} = {_literal(given_[key])}\n" for key in order))
    text = cfg.text
    assert parse_config(text) == cfg
    assert parse_config(text).text == text
    rendered = dict(line.split(" = ", 1) for line in text.splitlines())
    types = {key: conv for key, conv, *_ in _KEYS}
    for key, value in given_.items():
        assert types[key](rendered[key]) == value


def test_readme_config_block_lists_every_key_in_table_order():
    readme = README.read_text(encoding="utf-8")
    section = readme[readme.index("### Configuration"):]
    block = section[section.index("```ini\n") + len("```ini\n"):]
    block = block[: block.index("```")]
    key_line = re.compile(r"^#?\s*([a-z_][a-z0-9_]*(?:\.[a-z0-9_]+)+)\s*=", re.M)
    keys = [m.group(1) for m in key_line.finditer(block)]
    assert keys == [row[0] for row in _KEYS]
