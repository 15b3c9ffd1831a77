import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from refugia import cli, runner
from refugia.config import ContinuationSettings, parse_config
from refugia.continuation import continue_branch, trace_semitrivial
from refugia.errors import (
    ContinuationStalled,
    EmptyBranchList,
    OutputDirLocked,
    ParseError,
    ValidationError,
)
from refugia.geometry import build_geometry
from refugia.operators import ModelParams
from refugia.report import build_report
from refugia.runner import LOCK_NAME, MANIFEST_NAME, run_experiment
from refugia.steady import solve_kernel_function
from refugia.svgplot import emit_plot

MINIMAL = """
experiment.kind = steady
params.lambda = 1.0
params.m = 1.0
params.c = 2.0
params.b = 1.0
params.mu = 1.2
"""

BIF_SMALL = """
experiment.kind = bifurcate
geometry.nx = 16
geometry.ny = 16
geometry.refuge.kind = rectangle
geometry.refuge.center_x = 0.5
geometry.refuge.center_y = 0.5
geometry.refuge.half_width_x = 0.125
geometry.refuge.half_width_y = 0.125
params.lambda = 1.0
params.m = 1.0
params.c = 2.0
params.b = 1.0
params.mu_min = 0.8
params.mu_max = 1.2
params.mu_points = 5
solver.continuation.n_steps = 6
solver.continuation.ds = 0.03
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.kind == "steady"
    assert cfg.grid.nx == cfg.grid.ny == 64
    assert cfg.refuge.kind == "empty"
    assert cfg.params.mu == 1.2
    assert cfg.newton.tol_residual == 1e-10
    assert cfg.continuation == ContinuationSettings()
    assert cfg.seed == 0


def test_config_round_trip_variants(tmp_path):
    variants = [
        MINIMAL,
        BIF_SMALL,
        MINIMAL.replace("empty", "empty") + "geometry.lx = 2.0\ngeometry.ly = 0.5\n",
        BIF_SMALL.replace("rectangle", "disc")
        .replace("geometry.refuge.half_width_x = 0.125", "geometry.refuge.radius = 0.2")
        .replace("geometry.refuge.half_width_y = 0.125\n", ""),
    ]
    for text in variants:
        cfg = parse_config(text)
        assert parse_config(cfg.text) == cfg


def test_config_text_is_canonical():
    """The manifest's config echo, byte for byte: defaults filled in, keys in
    table order, unset keys left out, floats to 17 significant digits."""
    assert parse_config(BIF_SMALL).text == (
        "experiment.kind = bifurcate\n"
        "experiment.seed = 0\n"
        "geometry.nx = 16\n"
        "geometry.ny = 16\n"
        "geometry.lx = 1\n"
        "geometry.ly = 1\n"
        "geometry.refuge.kind = rectangle\n"
        "geometry.refuge.center_x = 0.5\n"
        "geometry.refuge.center_y = 0.5\n"
        "geometry.refuge.half_width_x = 0.125\n"
        "geometry.refuge.half_width_y = 0.125\n"
        "params.lambda = 1\n"
        "params.m = 1\n"
        "params.c = 2\n"
        "params.b = 1\n"
        "params.mu_min = 0.80000000000000004\n"
        "params.mu_max = 1.2\n"
        "params.mu_points = 5\n"
        "params.d_u = 1\n"
        "params.d_v = 1\n"
        "params.r = 1\n"
        "solver.newton.tol_residual = 1e-10\n"
        "solver.newton.max_iter = 50\n"
        "solver.transient.dt = 0.10000000000000001\n"
        "solver.transient.t_end = 400\n"
        "solver.transient.steady_tol = 9.9999999999999995e-08\n"
        "solver.transient.max_steps = 100000\n"
        "solver.continuation.ds = 0.029999999999999999\n"
        "solver.continuation.n_steps = 6\n"
        "solver.continuation.s0 = 0.050000000000000003\n"
    )


def test_negative_m_rejected_with_field_and_bound():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL.replace("params.m = 1.0", "params.m = -1"))
    assert any("params.m" in msg and ">= 0" in msg for _, msg in err.value.issues)


def test_scalar_mu_rejected_for_bifurcate():
    text = BIF_SMALL + "params.mu = 1.0\n"
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert any("scalar params.mu rejected" in msg for _, msg in err.value.issues)


def test_unknown_and_duplicate_keys():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + "bogus.key = 1\n")
    assert any("unknown key" in msg for _, msg in err.value.issues)
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "params.mu = 1.3\n")  # duplicate
    with pytest.raises(ParseError) as err2:
        parse_config("experiment.kind steady\n")
    assert err2.value.issues[0][0] == 1  # line number reported


def test_errors_are_aggregated():
    bad = MINIMAL.replace("params.m = 1.0", "params.m = -2").replace(
        "params.b = 1.0", "params.b = 0"
    )
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert len(err.value.issues) >= 2


def test_kind_override_fills_and_conflicts():
    headless = MINIMAL.replace("experiment.kind = steady\n", "")
    cfg = parse_config(headless, kind_override="steady")
    assert cfg.kind == "steady"
    with pytest.raises(ValidationError):
        parse_config(MINIMAL, kind_override="simulate")


def test_steady_run_writes_artifacts_and_manifest(tmp_path):
    cfg = parse_config(MINIMAL + "geometry.nx = 16\ngeometry.ny = 16\n")
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert manifest.exit_ok
    assert (tmp_path / "state_steady.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    listed = dict(manifest.files)
    on_disk = {
        str(p.relative_to(tmp_path))
        for p in tmp_path.rglob("*")
        if p.is_file() and p.name not in (MANIFEST_NAME, LOCK_NAME)
    }
    assert set(listed) == on_disk
    for rel, digest in manifest.files:
        assert hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() == digest
    header = (tmp_path / "state_steady.csv").read_text().splitlines()[0]
    assert header == "i,j,region,u,v"


def test_bifurcate_run_deterministic(tmp_path):
    cfg = parse_config(BIF_SMALL)
    m1 = run_experiment(cfg, out_dir=tmp_path / "a")
    m2 = run_experiment(cfg, out_dir=tmp_path / "b")
    assert m1.exit_ok and m2.exit_ok
    d1, d2 = dict(m1.files), dict(m2.files)
    assert d1 == d2  # bitwise identical artifacts
    assert "branch_semitrivial.csv" in d1
    assert "branch_nontrivial.csv" in d1
    assert "report.txt" in d1
    assert "diagram.svg" in d1
    header = (tmp_path / "a" / "branch_nontrivial.csv").read_text().splitlines()[0]
    assert header == (
        "label,index,mu,amplitude,s,gamma,flag,residual_norm,eigen_residual,complex_pair,"
        "corrector_iters"
    )


def test_verify_run_factors_the_cell_graph_once(tmp_path, scipy_counters):
    # the kernel-function solve and the coupled order share the geometry's
    # one LU of the cell graph I - lap_omega (operators.cell_graph)
    cfg = parse_config(BIF_SMALL.replace("bifurcate", "verify"))
    run_experiment(cfg, out_dir=tmp_path)
    geom = build_geometry(cfg.grid, cfg.refuge)
    graph = sp.identity(geom.n_omega, format="csc") - geom.lap_omega

    def is_cell_graph(A):
        return A.shape == graph.shape and (A - graph).count_nonzero() == 0

    assert sum(is_cell_graph(A) for A, _, _ in scipy_counters.splu_calls) == 1
    first = solve_kernel_function(cfg.params, geom).alpha.values
    n_lu = len(scipy_counters.splu_calls)
    again = solve_kernel_function(cfg.params, geom).alpha.values
    assert len(scipy_counters.splu_calls) == n_lu  # the second solve reuses the LU
    assert np.array_equal(again, first)

#: the benchmark's verify-64 case with the default continuation settings;
#: its coexistence branch does not depend on the mu samples of the
#: predator-free line, which the benchmark shifts per seed
VERIFY_64 = """
experiment.kind = verify
geometry.nx = 64
geometry.ny = 64
geometry.refuge.kind = rectangle
geometry.refuge.center_x = 0.5
geometry.refuge.center_y = 0.5
geometry.refuge.half_width_x = 0.125
geometry.refuge.half_width_y = 0.125
params.lambda = 1.0
params.m = 1.0
params.c = 2.0
params.b = 1.0
params.mu_min = 0.8
params.mu_max = 1.2
params.mu_points = 9
"""
REFERENCE_64 = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify-64.csv"


def test_verify_64_branch_meets_the_benchmark_reference(tmp_path):
    # the benchmark's correctness gate: mu to 1e-9, gamma to 1e-8
    cfg = parse_config(VERIFY_64)
    assert (cfg.grid.nx, cfg.grid.ny, cfg.continuation) == (64, 64, ContinuationSettings())
    assert run_experiment(cfg, out_dir=tmp_path).exit_ok
    with open(tmp_path / "branch_nontrivial.csv", newline="", encoding="utf-8") as fh:
        got = [(float(r["mu"]), float(r["gamma"])) for r in csv.DictReader(fh)]
    with open(REFERENCE_64, newline="", encoding="utf-8") as fh:
        ref = [(float(r["mu"]), float(r["gamma"])) for r in csv.DictReader(fh)]
    assert len(got) == len(ref) == 25
    assert max(abs(a[0] - b[0]) for a, b in zip(got, ref)) <= 1e-9
    assert max(abs(a[1] - b[1]) for a, b in zip(got, ref)) <= 1e-8


PERFBENCH = REFERENCE_64.parents[1]

#: counters perfbench/traced_run.py reads by the package's public names and
#: result attributes; each must be nonzero on a run of the kind that uses it
TRACED_COUNTERS = {
    "verify": (
        "steady.newton_solve.calls",
        "continuation.continue_branch.points",
        "operators.residual_steady.calls",
        "operators.assemble_jacobian.calls",
        "spectral.leading_eigenvalue.calls",
    ),
    "simulate": ("operators.rhs_transient.calls", "dynamics.run_to_steady.steps"),
}


def _harness_env() -> dict:
    """Child environment: the package from this checkout, no bytecode written."""
    src = str(PERFBENCH.parent / "src")
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


@pytest.mark.parametrize("kind", ["verify", "simulate"])
def test_benchmark_tracer_sees_the_library(tmp_path, kind):
    # the benchmark's traced run wraps the package's public functions by
    # name; a renamed or bypassed entry point reads as a zero counter there
    text = BIF_SMALL.replace("bifurcate", kind)
    if kind == "simulate":
        text = text.replace("params.mu_min = 0.8\nparams.mu_max = 1.2\nparams.mu_points = 5\n",
                            "params.mu = 0.9\n")
    cfg_path, summary = tmp_path / "run.cfg", tmp_path / "summary.json"
    cfg_path.write_text(text)
    argv = [sys.executable, str(PERFBENCH / "traced_run.py"), str(summary),
            kind, "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]
    done = subprocess.run(argv, cwd=tmp_path, env=_harness_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(summary.read_text())
    assert all(metrics[name][0] > 0 for name in TRACED_COUNTERS[kind]), metrics


def test_benchmark_newton_reference_runs(tmp_path):
    # the benchmark's simulate check compares the end state with this Newton
    # reference, built from SystemState, constant_state and newton_solve
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "from run import make_workload, newton_reference\n"
        "ref = newton_reference(make_workload('simulate-64', 1))\n"
        "print(json.dumps([len(ref), sum(v > 0.0 for _, v in ref)]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_harness_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    n_pairs, n_positive_v = json.loads(done.stdout.splitlines()[-1])
    assert n_pairs == 64 * 64
    assert n_positive_v > 0


def test_continue_kind_stops_after_branch(tmp_path):
    cfg = parse_config(BIF_SMALL.replace("bifurcate", "continue"))
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert manifest.exit_ok
    assert (tmp_path / "branch_nontrivial.csv").exists()
    assert (tmp_path / "states" / "nontrivial_000.csv").exists()
    assert not (tmp_path / "report.txt").exists()
    assert not (tmp_path / "diagram.svg").exists()


def test_stalled_continuation_leaves_its_branch(tmp_path, monkeypatch):
    # ContinuationStalled carries the points accepted before the stall: they
    # land in branch_nontrivial.csv, and the stage still fails
    stalled = []

    def stalls(start, direction, **kwargs):
        branch = continue_branch(start, direction, **{**kwargs, "n_steps": 2})
        stalled.append(branch)
        raise ContinuationStalled("corrector kept failing (injected)", branch)

    monkeypatch.setattr(runner, "continue_branch", stalls)
    manifest = run_experiment(parse_config(BIF_SMALL), out_dir=tmp_path)
    assert not manifest.exit_ok
    stages = {name: (status, detail) for name, status, detail in manifest.stages}
    assert stages["continue_branch"][0] == "error"
    assert "ContinuationStalled" in stages["continue_branch"][1]
    with open(tmp_path / "branch_nontrivial.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(stalled[0].points) == 3
    assert [(float(r["mu"]), float(r["gamma"])) for r in rows] == [
        (pt.mu, pt.gamma) for pt in stalled[0].points
    ]
    assert not (tmp_path / "report.txt").exists()


def test_verify_without_crossing_fails_loudly(tmp_path):
    text = BIF_SMALL.replace("bifurcate", "verify").replace(
        "params.mu_min = 0.8", "params.mu_min = 2.0"
    ).replace("params.mu_max = 1.2", "params.mu_max = 3.0")
    cfg = parse_config(text)
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert not manifest.exit_ok
    stages = {name: (status, detail) for name, status, detail in manifest.stages}
    assert stages["detect_transcritical"][0] == "error"
    assert "NoCrossing" in stages["detect_transcritical"][1]


def test_simulate_run(tmp_path):
    text = MINIMAL.replace("steady", "simulate") + (
        "geometry.nx = 16\ngeometry.ny = 16\n"
        "solver.transient.dt = 0.2\n"
        "solver.transient.steady_tol = 1e-3\n"
        "solver.transient.t_end = 100\n"
        "experiment.seed = 7\n"
    )
    cfg = parse_config(text)
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert manifest.exit_ok
    lines = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert lines[0] == "t,u_inf,v_inf,dudt_inf,dvdt_inf"
    assert len(lines) > 2


def test_output_dir_lock(tmp_path):
    # the lock names a live process (this one), so the directory stays owned
    cfg = parse_config(MINIMAL + "geometry.nx = 16\ngeometry.ny = 16\n")
    (tmp_path / LOCK_NAME).write_text(str(os.getpid()))
    with pytest.raises(OutputDirLocked):
        run_experiment(cfg, out_dir=tmp_path)
    assert (tmp_path / LOCK_NAME).read_text() == str(os.getpid())


def test_stale_output_dir_lock_is_taken_over(tmp_path):
    # a lock left by a dead run (the PID of an already reaped child) is stale
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    cfg = parse_config(MINIMAL + "geometry.nx = 16\ngeometry.ny = 16\n")
    (tmp_path / LOCK_NAME).write_text(str(child.pid))
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert manifest.exit_ok
    assert not (tmp_path / LOCK_NAME).exists()


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL + "geometry.nx = 16\ngeometry.ny = 16\n")
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert (out / "summary.txt").exists()
    # subcommand conflicting with config kind
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
    assert cli.main(["steady", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_cli_reports_output_path_under_a_file(tmp_path, capsys):
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINIMAL + "geometry.nx = 16\ngeometry.ny = 16\n")
    blocker = tmp_path / "plain"
    blocker.write_text("not a directory")
    out = blocker / "sub"
    assert cli.main(["steady", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("refugia: ") and str(out) in err
    assert "Traceback" not in err


def test_cli_reports_non_utf8_config(tmp_path, capsys):
    cfg_path = tmp_path / "latin.cfg"
    cfg_path.write_bytes(b"\xff\xfe" + MINIMAL.encode())
    assert cli.main(["steady", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refugia: cannot read config: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_verify_gate_nonzero(tmp_path):
    text = BIF_SMALL.replace("bifurcate", "verify").replace(
        "params.mu_min = 0.8", "params.mu_min = 2.0"
    ).replace("params.mu_max = 1.2", "params.mu_max = 3.0")
    cfg_path = tmp_path / "v.cfg"
    cfg_path.write_text(text)
    code = cli.main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2


def test_svg_structure(tmp_path, geom16):
    params = ModelParams(lam=1.0, m=1.0, c=2.0, b=1.0, mu=1.0)
    semi = trace_semitrivial(params, (0.8, 1.2), 5, geom16)
    rep = build_report(semi, None, 1.0, params, geom16)
    path = tmp_path / "one.svg"
    emit_plot([semi], None, path)  # no report: no marker
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert "bifurcation-marker" not in text
    path2 = tmp_path / "marked.svg"
    emit_plot([semi], rep, path2)
    text2 = path2.read_text()
    assert text2.count("<polyline") == 1
    assert text2.count("bifurcation-marker") == 1


def test_svg_refuses_empty_branch_list(tmp_path):
    target = tmp_path / "never.svg"
    with pytest.raises(EmptyBranchList):
        emit_plot([], None, target)
    assert not target.exists()


def test_manifest_lists_stage_outcomes(tmp_path):
    cfg = parse_config(MINIMAL + "geometry.nx = 16\ngeometry.ny = 16\n")
    run_experiment(cfg, out_dir=tmp_path)
    text = (tmp_path / MANIFEST_NAME).read_text()
    assert "stage.0.name = build_geometry" in text
    assert "manifest.exit_ok = True" in text
    assert "config.experiment.kind = steady" in text
    assert not (tmp_path / LOCK_NAME).exists()  # lock released
