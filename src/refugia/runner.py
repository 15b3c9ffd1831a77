"""Experiment orchestration: dispatch a run config, persist artifacts, and
write the run manifest.

A run owns its output directory exclusively for its duration (lock file).
The manifest is written exactly once, at the end, and inventories every
other file in the directory with a content digest; numerical artifacts are
bitwise reproducible for identical config and seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .continuation import (
    branch_switch,
    continue_branch,
    detect_transcritical,
    trace_semitrivial,
)
from .csvio import write_audit_csv, write_branch_csv, write_state_raster, write_timeseries
from .dynamics import run_to_steady
from .errors import ContinuationStalled, OutputDirLocked, OutputDirUnusable, RefugiaError
from .fields import Region, ScalarField, SystemState, constant_state
from .geometry import build_geometry
from .operators import assemble_jacobian, coupled_order
from .report import build_report
from .spectral import classify_value, leading_eigenvalue
from .steady import newton_solve
from .svgplot import emit_plot

LOCK_NAME = ".refugia.lock"
MANIFEST_NAME = "manifest.txt"


@dataclass
class RunManifest:
    config_text: str
    version: str
    started: str
    finished: str = ""
    stages: list[tuple[str, str, str]] = field(default_factory=list)  # name, status, detail
    files: list[tuple[str, str]] = field(default_factory=list)  # relpath, sha256
    exit_ok: bool = False

    def to_text(self) -> str:
        lines = [
            f"manifest.version = {self.version}",
            f"manifest.started = {self.started}",
            f"manifest.finished = {self.finished}",
            f"manifest.exit_ok = {self.exit_ok}",
        ]
        for i, (name, status, detail) in enumerate(self.stages):
            lines.append(f"stage.{i}.name = {name}")
            lines.append(f"stage.{i}.status = {status}")
            if detail:
                lines.append(f"stage.{i}.detail = {detail}")
        for i, (rel, digest) in enumerate(self.files):
            lines.append(f"file.{i}.path = {rel}")
            lines.append(f"file.{i}.sha256 = {digest}")
        for line in self.config_text.strip().splitlines():
            lines.append(f"config.{line}")
        return "\n".join(lines) + "\n"


class _StageFailed(RefugiaError):
    pass


class _Stages:
    def __init__(self, manifest: RunManifest, quiet: bool):
        self.manifest = manifest
        self.quiet = quiet

    @contextlib.contextmanager
    def stage(self, name: str):
        if not self.quiet:
            print(f"[refugia] {name} ...", flush=True)
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - every stage error lands in the manifest
            self.manifest.stages.append((name, "error", f"{type(exc).__name__}: {exc}"))
            raise _StageFailed(name) from exc
        self.manifest.stages.append((name, "ok", ""))


def _lock_owner_alive(lock: Path) -> bool:
    """False only when the PID in the lock file names no existing process."""
    try:
        os.kill(int(lock.read_text()), 0)
    except ProcessLookupError:
        return False
    except (OSError, ValueError):  # unreadable, or alive under another user
        pass
    return True


@contextlib.contextmanager
def _dir_lock(out_dir: Path):
    """Own out_dir while the run lasts: a lock file holding this PID. A lock
    left by a dead process (a killed run, say) is taken over."""
    lock = out_dir / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        if _lock_owner_alive(lock):
            raise OutputDirLocked(f"{out_dir} is owned by a live run (pid in {lock})") from None
        fd = os.open(lock, os.O_WRONLY | os.O_TRUNC)
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    try:
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            lock.unlink()


def _perturbed_start(cfg: RunConfig, geom) -> SystemState:
    """Seeded start near (lam, small predators) for transient experiments."""
    rng = np.random.default_rng(cfg.seed)
    lam = cfg.params.lam
    u0 = lam * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, geom.n_omega))
    v0 = 0.05 * lam * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, geom.n_omega1))
    return SystemState(ScalarField(u0, Region.OMEGA), ScalarField(v0, Region.OMEGA1))


def run_experiment(cfg: RunConfig, out_dir=None, quiet: bool = True) -> RunManifest:
    """Execute the configured experiment and write all artifacts.

    Returns the manifest; exit_ok is True iff every stage succeeded and, for
    the verify kind, the report gate passed. Errors inside stages are
    recorded rather than raised (configuration-level errors still raise).
    """
    out = Path(out_dir if out_dir is not None else (cfg.out_dir or "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputDirUnusable(f"cannot create output directory {out}: {exc.strerror}") from exc
    manifest = RunManifest(
        config_text=cfg.text,
        version=__version__,
        started=datetime.now(timezone.utc).isoformat(),
    )
    stages = _Stages(manifest, quiet)

    with _dir_lock(out):
        try:
            _dispatch(cfg, out, stages)
            manifest.exit_ok = True
        except _StageFailed:
            manifest.exit_ok = False
        manifest.finished = datetime.now(timezone.utc).isoformat()
        for p in sorted(out.rglob("*")):
            if p.is_file() and p.name not in (MANIFEST_NAME, LOCK_NAME):
                digest = hashlib.sha256(p.read_bytes()).hexdigest()
                manifest.files.append((str(p.relative_to(out)), digest))
        (out / MANIFEST_NAME).write_text(manifest.to_text(), encoding="utf-8")
    return manifest


def _dispatch(cfg: RunConfig, out: Path, stages: _Stages) -> None:
    with stages.stage("build_geometry"):
        geom = build_geometry(cfg.grid, cfg.refuge)

    if cfg.kind == "simulate":
        with stages.stage("transient_run"):
            start = _perturbed_start(cfg, geom)
            result = run_to_steady(start, cfg.params, cfg.transient, geom)
        with stages.stage("write_artifacts"):
            write_timeseries(out / "timeseries.csv", result.history)
            write_state_raster(out / "state_final.csv", geom, result.state)
        with stages.stage("converged"):
            if not result.converged:
                raise RefugiaError(
                    f"transient run not converged after {result.steps} steps "
                    f"(t = {result.t_final:g})"
                )
        return

    if cfg.kind == "steady":
        with stages.stage("newton_solve"):
            start = constant_state(geom, cfg.params.lam, 0.05 * cfg.params.lam)
            result = newton_solve(start, cfg.params, cfg.newton, geom)
        with stages.stage("classify"):
            J = assemble_jacobian(cfg.params, result.state.as_vector(), geom)
            ep = leading_eigenvalue(J, coupled_order(geom))
            flag = classify_value(ep.value)
        with stages.stage("write_artifacts"):
            write_state_raster(out / "state_steady.csv", geom, result.state)
            (out / "summary.txt").write_text(
                f"residual_inf = {result.residual_norm:.17g}\n"
                f"iterations = {result.iterations}\n"
                f"leading_eigenvalue = {ep.value:.17g}\n"
                f"flag = {flag.value}\n",
                encoding="utf-8",
            )
        return

    # range kinds: continue, bifurcate, verify
    mu_min, mu_max, mu_points = cfg.mu_range
    with stages.stage("trace_semitrivial"):
        semi = trace_semitrivial(cfg.params, (mu_min, mu_max), mu_points, geom)
        write_branch_csv(out / "branch_semitrivial.csv", semi)
    with stages.stage("detect_transcritical"):
        mu_star = detect_transcritical(semi)
    with stages.stage("branch_switch"):
        start_pt = branch_switch(mu_star, cfg.params, geom, s0=cfg.continuation.s0,
                                 newton_cfg=cfg.newton)
    with stages.stage("continue_branch"):
        base = constant_state(geom, cfg.params.lam, 0.0).as_vector()
        direction = (start_pt.state.as_vector() - base, start_pt.mu - mu_star)
        try:
            nontrivial = continue_branch(
                start_pt,
                direction,
                n_steps=cfg.continuation.n_steps,
                ds=cfg.continuation.ds,
                params=cfg.params,
                geom=geom,
                newton_cfg=cfg.newton,
                amplitude_cap=cfg.continuation.amplitude_cap,
            )
        except ContinuationStalled as exc:  # keep the accepted points, then fail the stage
            write_branch_csv(out / "branch_nontrivial.csv", exc.branch)
            raise
        write_branch_csv(out / "branch_nontrivial.csv", nontrivial)
        states_dir = out / "states"
        states_dir.mkdir(exist_ok=True)
        for idx, p in enumerate(nontrivial.points):
            write_state_raster(states_dir / f"nontrivial_{idx:03d}.csv", geom, p.state)

    if cfg.kind == "continue":
        return

    with stages.stage("build_report"):
        rep = build_report(semi, nontrivial, mu_star, cfg.params, geom)
        (out / "report.txt").write_text(rep.to_text(), encoding="utf-8")
        if rep.audit is not None:
            write_audit_csv(out / "audit.csv", rep.audit)
    with stages.stage("emit_plot"):
        emit_plot([semi, nontrivial], rep, out / "diagram.svg")

    if cfg.kind == "verify":
        with stages.stage("verdict"):
            if failed := rep.failed_gates():
                raise RefugiaError(f"verification gate failed: {'; '.join(failed)}")
