#!/usr/bin/env python3
"""refugia benchmark: each workload runs as a fresh `refugia` CLI child process.

    python3 perfbench/run.py --workload verify-64 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the children import the package from
<root>/src. The seed only shapes the generated config the CLI reads.

--trace 0  A closed loop with one client. Setup probes first (children that
           are stopped at their `build_geometry` stage line), then whole CLI
           runs one after another until --seconds have passed (at least one).
           Prints the end-to-end metrics.
--trace 1  Two untraced children (per-stage times, peak RSS, untraced wall
           time) alternating with two traced in-process runs
           (traced_run.py). Prints the per-layer metrics and fails the check
           if the traced counters differ between the two traced runs.

Every child runs with OMP/OPENBLAS/MKL_NUM_THREADS=1 and its outputs are
checked (see NOTES.md). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

LAM, M, C, B = 1.0, 1.0, 2.0, 1.0
MU_STAR = C * LAM / (1.0 + M * LAM)  # the paper's threshold c*lam/(1 + m*lam)
SIMULATE_MU = 0.9

SETUP_PROBES = 4  # counted setup probes per --trace 0 run, after one warm-up probe
CHILD_TIMEOUT_S = 150.0
TRACED_RUNS = 2
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: the stage whose start line means the run's first answer is known
ANSWER_STAGE = {"verify": "branch_switch", "simulate": "write_artifacts", "steady": "write_artifacts"}

#: every stage the runner announces, for the runner.<stage>_s per-layer metrics
STAGES = (
    "build_geometry", "trace_semitrivial", "detect_transcritical", "branch_switch",
    "continue_branch", "build_report", "emit_plot", "verdict", "newton_solve",
    "classify", "transient_run", "write_artifacts", "converged",
)

SQUARE_64 = """\
geometry.nx = 64
geometry.ny = 64
geometry.refuge.kind = rectangle
geometry.refuge.center_x = 0.5
geometry.refuge.center_y = 0.5
geometry.refuge.half_width_x = 0.125
geometry.refuge.half_width_y = 0.125
"""

DISC_128 = """\
geometry.nx = 128
geometry.ny = 128
geometry.refuge.kind = disc
geometry.refuge.center_x = 0.4
geometry.refuge.center_y = 0.55
geometry.refuge.radius = 0.15
"""

PARAMS = f"params.lambda = {LAM}\nparams.m = {M}\nparams.c = {C}\nparams.b = {B}\n"

#: workload -> (CLI kind, geometry block). BENCHMARK.json lists the first two;
#: every verify-128 run fails today, and steady-128 did not fit the time budget
#: (see NOTES.md)
WORKLOADS = {
    "verify-64": ("verify", SQUARE_64),
    "simulate-64": ("simulate", SQUARE_64),
    "steady-128": ("steady", DISC_128),
    "verify-128": ("verify", DISC_128),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    mu: float | None  # the scalar mu of simulate/steady runs
    config: str


def make_workload(name: str, seed: int) -> Workload:
    """The generated config; the same seed gives the same text."""
    kind, geometry = WORKLOADS[name]
    rng = random.Random(seed)
    head = f"experiment.kind = {kind}\nexperiment.seed = {seed}\n{geometry}{PARAMS}"
    if kind == "verify":
        # 9 samples 0.05 apart, shifted so that mu* falls strictly between two
        # of them and detect_transcritical's root find runs
        shift = 0.005 + 0.04 * rng.random()
        lo, hi = 0.8 * MU_STAR + shift, 1.2 * MU_STAR + shift
        text = f"{head}params.mu_min = {lo!r}\nparams.mu_max = {hi!r}\nparams.mu_points = 9\n"
        return Workload(name, kind, None, text)
    mu = SIMULATE_MU if kind == "simulate" else 0.88 + 0.04 * rng.random()
    return Workload(name, kind, mu, f"{head}params.mu = {mu!r}\n")


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_CAPS)
    # children cache bytecode under src/ as an installed package would, so
    # setup_s does not depend on whether the caller's shell disables that
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    out: Path
    wall_s: float
    stamps: dict[str, float]  # stage -> seconds from spawn to its "[refugia] <stage> ..." line
    status: int
    peak_rss_mb: float
    stderr: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == 0 and not self.problems

    def failure(self) -> str:
        m = re.search(r"stage (\S+) failed: (.*)", self.stderr)
        if m:
            return f"stage {m.group(1)}: {m.group(2)}"
        if self.status != 0:
            last = list(self.stamps)[-1] if self.stamps else "startup"
            return f"exit {self.status} during {last}: {self.stderr.strip()[-300:]}"
        return "; ".join(self.problems)


def spawn(argv: list[str], out: Path, stop_at: str | None = None) -> Child:
    """Run one child to its end (or kill it at the stop_at stage line) and reap it."""
    err_path = out.parent / f"{out.name}.stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        stamps: dict[str, float] = {}
        try:
            for raw in iter(proc.stdout.readline, b""):
                words = raw.decode(errors="replace").split()
                if len(words) >= 2 and words[0] == "[refugia]":
                    stamps.setdefault(words[1], time.perf_counter() - t0)
                    if words[1] == stop_at:
                        proc.kill()
                        break
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            _, wait_status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
            proc.stdout.close()
    return Child(out, wall, stamps, proc.returncode, usage.ru_maxrss / 1024.0,
                 err_path.read_text(errors="replace"))


def cli_argv(wl: Workload, cfg: Path, out: Path) -> list[str]:
    return [wl.kind, "--config", str(cfg), "--out", str(out)]


def run_cli(wl: Workload, cfg: Path, out: Path, stop_at: str | None = None) -> Child:
    return spawn([sys.executable, "-m", "refugia.cli", *cli_argv(wl, cfg, out)], out, stop_at)


def setup_probe(wl: Workload, cfg: Path, out: Path) -> float:
    """Seconds from spawn to the build_geometry line; the child is then killed."""
    probe = run_cli(wl, cfg, out, stop_at="build_geometry")
    if "build_geometry" not in probe.stamps:
        raise RuntimeError(f"setup probe never reached build_geometry: {probe.stderr.strip()}")
    return probe.stamps["build_geometry"]


# ---------------------------------------------------------------- checks


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_pairs(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {p[0].strip(): p[1].strip() for p in pairs if len(p) == 2}


def semitrivial_gamma(mu: float) -> float:
    """Closed-form leading eigenvalue on the predator-free line
    (spectral.semitrivial_leading_analytic)."""
    return max(-LAM, MU_STAR - mu)


def check_verify(wl: Workload, child: Child) -> list[str]:
    out, problems = child.out, []
    semi = out / "branch_semitrivial.csv"
    if semi.exists():
        worst = max(abs(float(r["gamma"]) - semitrivial_gamma(float(r["mu"])))
                    for r in read_rows(semi))
        if worst > 1e-8:
            problems.append(f"predator-free gamma off the closed form by {worst:.3e} > 1e-8")
    if child.status != 0:
        return problems  # the failure itself is counted by the caller

    mu_star = float(read_pairs(out / "report.txt")["mu_star_detected"])
    if abs(mu_star - MU_STAR) > 1e-9:
        problems.append(f"|mu* - c*lam/(1+m*lam)| = {abs(mu_star - MU_STAR):.3e} > 1e-9")

    branch = [(float(r["mu"]), float(r["gamma"])) for r in read_rows(out / "branch_nontrivial.csv")]
    ref = [(float(r["mu"]), float(r["gamma"])) for r in read_rows(REFERENCE / f"{wl.name}.csv")]
    if len(ref) != len(branch):
        problems.append(f"coexistence branch has {len(branch)} points, reference {len(ref)}")
    else:
        d_mu = max(abs(a[0] - b[0]) for a, b in zip(branch, ref))
        d_gamma = max(abs(a[1] - b[1]) for a, b in zip(branch, ref))
        if d_mu > 1e-9 or d_gamma > 1e-8:
            problems.append(f"coexistence branch vs reference: mu {d_mu:.3e} (tol 1e-9), "
                            f"gamma {d_gamma:.3e} (tol 1e-8)")
    return problems


def newton_reference(wl: Workload) -> list[tuple[float, float]]:
    """Coexistence steady state at the workload's mu, by Newton from the kernel
    tangent at amplitude 0.35 as acceptance criterion 9 does; raster order."""
    os.environ.update(THREAD_CAPS)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import numpy as np
    from refugia.config import parse_config
    from refugia.fields import SystemState, constant_state
    from refugia.geometry import build_geometry
    from refugia.steady import newton_solve, solve_kernel_function

    cfg = parse_config(wl.config)
    geom = build_geometry(cfg.grid, cfg.refuge)
    kt = solve_kernel_function(cfg.params, geom)
    start = constant_state(geom, LAM, 0.0).as_vector() + 0.35 * kt.direction(geom)
    state = newton_solve(SystemState.from_vector(np.maximum(start, 0.0), geom.n_omega),
                         cfg.params, cfg.newton, geom).state
    if state.v.values.min() <= 0.0:
        raise RuntimeError("reference Newton solve did not reach the coexistence state")
    u = state.u.values
    v = np.zeros(geom.n_omega)
    v[geom.omega1_mask.ravel()] = state.v.values
    return list(zip(u.tolist(), v.tolist()))


def check_simulate(child: Child, reference: list[tuple[float, float]]) -> list[str]:
    if child.status != 0:
        return []
    rows = read_rows(child.out / "state_final.csv")
    gap = max(max(abs(float(r["u"]) - ru), abs(float(r["v"]) - rv))
              for r, (ru, rv) in zip(rows, reference, strict=True))
    return [] if gap <= 1e-4 else [f"transient end state {gap:.3e} from the Newton state (> 1e-4)"]


def check_steady(wl: Workload, child: Child) -> list[str]:
    if child.status != 0:
        return []
    summary = read_pairs(child.out / "summary.txt")
    problems = []
    if float(summary["residual_inf"]) > 1e-10:
        problems.append(f"steady residual {summary['residual_inf']} > 1e-10")
    rows = read_rows(child.out / "state_steady.csv")
    off = max(max(abs(float(r["u"]) - LAM), abs(float(r["v"]))) for r in rows)
    if off > 1e-8:
        problems.append(f"Newton state is {off:.3e} from the predator-free state (lam, 0)")
    gap = abs(float(summary["leading_eigenvalue"]) - semitrivial_gamma(wl.mu))
    if gap > 1e-8:
        problems.append(f"leading eigenvalue off the closed form by {gap:.3e} > 1e-8")
    if summary["flag"] != "unstable":
        problems.append(f"predator-free state below mu* flagged {summary['flag']}")
    return problems


class Checker:
    def __init__(self, wl: Workload):
        self.wl = wl
        self.reference = newton_reference(wl) if wl.kind == "simulate" else None

    def __call__(self, child: Child) -> Child:
        try:
            if self.wl.kind == "verify":
                child.problems = check_verify(self.wl, child)
            elif self.wl.kind == "simulate":
                child.problems = check_simulate(child, self.reference)
            else:
                child.problems = check_steady(self.wl, child)
        except (OSError, KeyError, ValueError) as exc:
            child.problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return child


# ---------------------------------------------------------------- runs


def run_untraced(wl: Workload, cfg: Path, work: Path, seconds: float, check: Checker):
    runs: list[Child] = []
    t_start = time.perf_counter()
    setup_probe(wl, cfg, work / "warm")  # fills the bytecode cache; not counted
    setups = [setup_probe(wl, cfg, work / f"probe{i}") for i in range(SETUP_PROBES)]
    while not runs or time.perf_counter() - t_start < seconds:
        runs.append(check(run_cli(wl, cfg, work / f"run{len(runs)}")))
    setups += [c.stamps["build_geometry"] for c in runs if "build_geometry" in c.stamps]

    ok = [c for c in runs if c.ok]
    answer = ANSWER_STAGE[wl.kind]
    samples = {
        "wall_s": ([c.wall_s for c in ok], "s"),
        "first_answer_s": ([c.stamps[answer] for c in runs if answer in c.stamps], "s"),
        "setup_s": (setups, "s"),
    }
    metrics = {}
    for name, (values, unit) in samples.items():
        if values:
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} = {value:.6g} {unit} (median of n={len(values)})")
        else:
            print(f"metric {name}: no sample (no verified run)")
    return runs, metrics


def stage_seconds(child: Child) -> dict[str, float]:
    """Per-stage wall time from consecutive stage-line timestamps; the last
    stage ends at the "run complete" line or at exit."""
    marks = sorted(child.stamps.items(), key=lambda kv: kv[1])
    ends = [t for _, t in marks[1:]] + [child.wall_s]
    return {name: end - t for (name, t), end in zip(marks, ends) if name in STAGES}


def run_traced(wl: Workload, cfg: Path, work: Path, check: Checker):
    """Untraced and traced children alternate, TRACED_RUNS of each."""
    setup_probe(wl, cfg, work / "warm")  # fills the bytecode cache
    untraced, traced, layers = [], [], []
    for i in range(TRACED_RUNS):
        untraced.append(check(run_cli(wl, cfg, work / f"untraced{i}")))
        out, summary = work / f"traced{i}", work / f"traced{i}.json"
        argv = [sys.executable, str(HERE / "traced_run.py"), str(summary)]
        traced.append(check(spawn(argv + cli_argv(wl, cfg, out), out)))
        layers.append(json.loads(summary.read_text()) if summary.exists() else None)
    runs = untraced + traced

    problems = []
    if None in layers:
        problems.append("a traced run wrote no span summary")
        return runs, {}, problems
    for name, (value, unit) in layers[0].items():
        if unit not in ("s", "ms") and layers[1][name][0] != value:
            problems.append(f"traced counter {name} differs between runs: "
                            f"{value} vs {layers[1][name][0]}")

    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit in ("s", "ms"):
            value = statistics.median(layer[name][0] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    stages = [stage_seconds(c) for c in untraced]
    for stage in STAGES:
        value = statistics.median(st.get(stage, 0.0) for st in stages)
        metrics[f"runner.{stage}_s"] = {"value": value, "unit": "s"}
    # peak RSS varies by up to 18% between identical runs (102 vs 120 MB at
    # verify-64), too much for an end-to-end bound; it is reported here
    metrics["runner.peak_rss_mb"] = {
        "value": statistics.median(c.peak_rss_mb for c in untraced), "unit": "MB"}
    traced_wall = statistics.median(c.wall_s for c in traced)
    untraced_wall = statistics.median(c.wall_s for c in untraced)
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"info wall time medians of {TRACED_RUNS}: traced {traced_wall:.3f} s, "
          f"untraced {untraced_wall:.3f} s")
    return runs, metrics, problems


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "refugia").glob("*.py")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "refugia" / "cli.py").is_file():
        print(f"perfbench: no refugia sources under {SRC}", file=sys.stderr)
        return 2

    wl = make_workload(args.workload, args.seed)
    work = HERE / "_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cfg = work / "run.cfg"
        cfg.write_text(wl.config, encoding="utf-8")
        check = Checker(wl)
        print(f"workload {wl.name} seed {args.seed}: refugia {wl.kind}, "
              f"trace {args.trace}, src/refugia {src_lines()} lines", flush=True)
        if args.trace:
            runs, metrics, problems = run_traced(wl, cfg, work, check)
        else:
            runs, metrics = run_untraced(wl, cfg, work, args.seconds, check)
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # only succeeds once the last run is gone
            work.parent.rmdir()

    failed = [c for c in runs if not c.ok]
    for i, c in enumerate(runs):
        print(f"run {i}: exit {c.status}, wall {c.wall_s:.3f} s, peak RSS {c.peak_rss_mb:.1f} MB"
              + ("" if c.ok else f", FAILED: {c.failure()}"))
    for p in problems:
        print(f"check: {p}")
    print(f"info failed_frac = {len(failed) / len(runs):.3g} ({len(failed)}/{len(runs)})")
    correct = not problems and not any(c.problems for c in runs)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
