"""A hand-written mutation sample of the numbers and guards that steer a run in src/refugia.

Each entry edits one piece of text in one file of src/refugia: a module-level
constant of continuation, dynamics, operators, report, spectral or steady; an
inline number other than 0, 1 and 2 in config, continuation, dynamics,
operators, report, runner, spectral or steady, or a field default of
NewtonConfig, TransientConfig or ContinuationSettings; a bound or a literal
default of config's key table (_KEYS), or the rule on s0 across keys; or a
guard inside a solver. The
mutant runs the tier-1 suite with -x in a temporary copy of the checkout
(never in the checkout itself), less tests/test_mutation_sample.py, which
checks the sample against the unmutated text; it is killed when a test
fails. Every entry names the test expected to kill it, except the equivalent
mutants, which no test can kill; EQUIVALENT says why for each.
tests/test_mutation_sample.py keeps the sample in step with src.

Usage, from anywhere (standard library only):

    python tools/mutants.py               # run every mutant
    python tools/mutants.py --list        # list the entries
    python tools/mutants.py --only NAME   # run one entry (repeatable)

The exit status is 0 when every mutant is killed by the test it names and
every equivalent one survives. The full sample of 88 entries took 31 minutes
on a 2-vCPU box; a survivor runs the whole suite.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = Path("src") / "refugia"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str  # occurs exactly once in file
    new: str
    killer: str | None  # the first test to fail, None for an equivalent mutant


def _m(name, module, old, new, killer=None):
    return Mutant(name, str(SRC / f"{module}.py"), old, new, killer)


def _bound(key, head, bound, looser, killer):
    """bound-<key's last part>: config._KEYS's row (key, head..., bound) with
    the next weaker bound, looser."""
    return _m(f"bound-{key.rsplit('.', 1)[1]}", "config", f'("{key}", {head}, {bound})',
              f'("{key}", {head}, {looser})', killer)


_POSITIVE = "_POSITIVE"
_NONNEGATIVE = '(">=", 0)'
_REJECTED = "tests/test_config.py::test_non_finite_and_out_of_range_values_rejected"
#: parse_config's bound on s0 and its message, which quotes the bound
S0_RULE = """s0 > 0.1 * lam:
        issues.append((line_of("solver.continuation.s0"),
                       f"solver.continuation.s0 must be <= 0.1*params.lambda = {0.1 * lam:g}"))"""


MUTANTS = [
    # continuation
    _m("MU_BAND", "continuation", "MU_BAND = 1e-4", "MU_BAND = 1e-2",
       "tests/test_continuation.py::test_sign_relation_band_is_mu_band_wide"),
    _m("DELTA_SWITCH_FRACTION", "continuation", "DELTA_SWITCH_FRACTION = 1e-2",
       "DELTA_SWITCH_FRACTION = 1e-1",
       "tests/test_continuation.py::test_branch_switch_keeps_a_point_between_the_collapse_bounds"),
    _m("MIN_DS_FACTOR", "continuation", "MIN_DS_FACTOR = 64", "MIN_DS_FACTOR = 4",
       "tests/test_continuation.py::test_stalled_continuation_carries_its_accepted_points"),
    _m("MAX_STEP_RATIO", "continuation", "MAX_STEP_RATIO = 2.0", "MAX_STEP_RATIO = 1e9",
       "tests/test_continuation.py::test_continuation_does_not_jump_off_the_branch"),
    _m("MIN_AUDIT_POINTS", "continuation", "MIN_AUDIT_POINTS = 5", "MIN_AUDIT_POINTS = 4",
       "tests/test_continuation.py::test_sign_relation_needs_five_points"),
    _m("gershgorin-redo", "continuation",
       "if previous is not None and previous.complex_pair and not ep.complex_pair:",
       "if False:",
       "tests/test_continuation.py::test_branch_run_to_mu_zero_keeps_its_leading_eigenvalue"),
    _m("ds-floor", "continuation",
       "if not ds / MIN_DS_FACTOR >", "if False and ds / MIN_DS_FACTOR >",
       "tests/test_continuation.py::test_continue_branch_rejects_a_step_at_the_constraint_tolerance"),
    _m("predator-only-retry", "continuation", "if at_end:", "if False:",
       "tests/test_continuation.py::test_a_step_onto_the_predator_only_state_is_retried_at_half_ds"),
    _m("s0-bound", "continuation", "0.0 < s0 <= 0.1 * params.lam", "0.0 < s0 <= 1.0 * params.lam",
       "tests/test_continuation.py::test_branch_switch_rejects_bad_s0"),
    _m("collapse-test", "continuation", "< s0 / 10.0:", "< s0 / 2.0:",
       "tests/test_continuation.py::test_branch_switch_keeps_a_point_between_the_collapse_bounds"),
    _m("ds-halving", "continuation", "ds_cur *= 0.5", "ds_cur *= 0.25",
       "tests/test_continuation.py::test_stalled_continuation_carries_its_accepted_points"),
    # dynamics
    _m("REJECT_BELOW", "dynamics", "REJECT_BELOW = -1e-8", "REJECT_BELOW = -1e-2",
       "tests/test_dynamics.py::test_rejected_step_is_retried_one_level_down"),
    _m("CG_RTOL", "dynamics", "CG_RTOL = 1e-12", "CG_RTOL = 1e-6",
       "tests/test_dynamics.py::test_imex_step_matches_spsolve_oracle"),
    _m("REFACTOR_ITERS", "dynamics", "REFACTOR_ITERS = 12", "REFACTOR_ITERS = 10**9",
       "tests/test_dynamics.py::test_preconditioner_refresh_keeps_an_enriched_run_cheap"),
    _m("HISTORY", "dynamics", "HISTORY = 3", "HISTORY = 1",
       "tests/test_dynamics.py::test_coexistence_run_solver_counters"),
    _m("STALL_STEPS", "dynamics", "STALL_STEPS = 16", "STALL_STEPS = 10**9",
       "tests/test_dynamics.py::test_stall_cap_lets_a_weakly_damped_spiral_converge"),
    _m("base-step-reset", "dynamics", "if k == 0 or rate_norm < low:", "if rate_norm < low:",
       "tests/test_dynamics.py::test_enriched_run_is_not_declared_steady"),
    _m("overshoot-bound", "dynamics", "if mu < -1 / 3:", "if mu < -1 / 2:",
       "tests/test_dynamics.py::test_ladder_settles_on_the_logistic_bound"),
    # killed only because the strict xfail's case (b), slow-level, then
    # passes: the rest of tier-1 passes at 1/2 (ROADMAP item 10 keeps 1/3)
    _m("climb-bound", "dynamics", "elif 1 / 3 < mu", "elif 1 / 2 < mu",
       "tests/test_dynamics.py::test_ladder_converges_where_fixed_dt_does"),
    _m("growth-bound", "dynamics", "1 / 3 < mu < 1:", "1 / 3 < mu < 2:",
       "tests/test_dynamics.py::test_ladder_settles_on_the_logistic_bound"),
    _m("horizon-slack", "dynamics", "cfg.dt + 1e-9)", "cfg.dt + 0.0)",
       "tests/test_dynamics.py::test_a_horizon_that_rounds_below_its_step_count_is_reached"),
    _m("cg-rtol", "dynamics", "rtol=0.0,", "rtol=1e-6,",
       "tests/test_dynamics.py::test_imex_step_matches_spsolve_oracle"),
    _m("default-dt", "dynamics", "dt: float = 0.1", "dt: float = 0.2",
       "tests/test_harness.py::test_config_text_is_canonical"),
    _m("default-t_end", "dynamics", "t_end: float = 400.0", "t_end: float = 200.0",
       "tests/test_harness.py::test_config_text_is_canonical"),
    _m("default-steady_tol", "dynamics", "steady_tol: float = 1e-7", "steady_tol: float = 1e-6",
       "tests/test_harness.py::test_config_text_is_canonical"),
    # operators
    _m("TOL_NEGATIVE", "operators", "TOL_NEGATIVE = -1e-12", "TOL_NEGATIVE = -1e-5",
       "tests/test_operators.py::test_negative_prey_rejected"),
    _m("PERMC_SPEC", "operators", 'PERMC_SPEC = "MMD_AT_PLUS_A"', 'PERMC_SPEC = "COLAMD"',
       "tests/test_operators.py::test_every_lu_is_pattern_symmetric_in_symmetric_mode"),
    _m("clamp-zeroing", "operators", "    if lo < 0.0:\n", "    if False:\n",
       "tests/test_operators.py::test_tiny_negative_clamped"),
    # any other weight also breaks div(u grad u) = lap(u^2)/2, which
    # test_half_laplacian_identity_holds_on_every_cell states; criterion 3
    # runs first
    _m("face-average", "operators", "0.5 * (x[a] + x[b])", "0.25 * (x[a] + x[b])",
       "tests/test_acceptance.py::test_criterion_3_jacobian_fidelity"),
    # report
    _m("GAP_TOL", "report", "GAP_TOL = 1e-3", "GAP_TOL = 0.5",
       "tests/test_report.py::test_failing_exchange_cell_lists_its_points"),
    _m("COSINE_MIN", "report", "COSINE_MIN = 0.99", "COSINE_MIN = 0.5",
       "tests/test_report.py::test_tangent_gate_is_cosine_min"),
    _m("tangent-window", "report", "by_amp[:3]", "by_amp[:2]",
       "tests/test_report.py::test_report_windows"),
    _m("slope-window", "report", "nontrivial.points[:10]", "nontrivial.points[:5]",
       "tests/test_report.py::test_report_windows"),
    _m("two-point-minimum", "report", "len(nontrivial.points) < 2:",
       "len(nontrivial.points) < 3:", "tests/test_report.py::test_report_on_a_two_point_branch"),
    # runner
    _m("prey-perturbation", "runner", "0.01 * rng.uniform(-1.0, 1.0, geom.n_omega)",
       "0.1 * rng.uniform(-1.0, 1.0, geom.n_omega)",
       "tests/test_harness.py::test_simulate_run"),
    _m("predator-start", "runner", "v0 = 0.05 * lam", "v0 = 0.5 * lam",
       "tests/test_harness.py::test_simulate_run"),
    _m("predator-perturbation", "runner", "0.01 * rng.uniform(-1.0, 1.0, geom.n_omega1)",
       "0.1 * rng.uniform(-1.0, 1.0, geom.n_omega1)",
       "tests/test_harness.py::test_simulate_run"),
    _m("steady-start", "runner", "0.05 * cfg.params.lam)", "0.5 * cfg.params.lam)"),
    # spectral
    _m("STABILITY_MARGIN", "spectral", "STABILITY_MARGIN = 1e-6", "STABILITY_MARGIN = 1e-3",
       "tests/test_harness.py::test_verify_run_hands_the_pinned_switch_points_lu_on"),
    _m("RESIDUAL_TOL", "spectral", "RESIDUAL_TOL = 1e-8", "RESIDUAL_TOL = 1e-4",
       "tests/test_spectral.py::test_pair_off_the_residual_contract_is_refused"),
    _m("N_PAIRS", "spectral", "N_PAIRS = 2", "N_PAIRS = 1",
       "tests/test_spectral.py::test_sigma_zero_keeps_a_spare_pair"),
    _m("NCV", "spectral", "NCV = 6", "NCV = 8",
       "tests/test_spectral.py::test_shift_invert_solve_count"),
    _m("EIGS_TOL", "spectral", "EIGS_TOL = 1e-12", "EIGS_TOL = 1e-4",
       "tests/test_continuation.py::test_continuation_does_not_jump_off_the_branch"),
    _m("complex-pair-threshold", "spectral", "abs(lam.imag) > 1e-10", "abs(lam.imag) > 1e-3",
       "tests/test_spectral.py::test_slowly_rotating_pair_is_flagged"),
    _m("gershgorin-offset", "spectral", "edge + 0.01 * (1.0 + abs(edge))",
       "edge + 1e-6 * (1.0 + abs(edge))"),
    _m("dense-path", "spectral", "if n <= NCV:", "if n < 0:",
       "tests/test_spectral.py::test_diagonal_operator"),
    # steady
    _m("LINSOLVE_RTOL", "steady", "LINSOLVE_RTOL = 1e-12", "LINSOLVE_RTOL = 1e-6",
       "tests/test_steady.py::test_kernel_solve_is_held_to_the_backward_error_bound"),
    _m("CONSTRAINT_TOL", "steady", "CONSTRAINT_TOL = 1e-12", "CONSTRAINT_TOL = 1e-6",
       "tests/test_continuation.py::test_continue_branch_rejects_a_step_at_the_constraint_tolerance"),
    _m("constraint-tol-in-newton", "steady",
       "abs(con) <= CONSTRAINT_TOL:", "abs(con) <= 1e-6:",
       "tests/test_steady.py::test_a_constraint_the_clamp_keeps_unmet_is_not_converged"),
    _m("CHORD_CONTRACTION", "steady", "CHORD_CONTRACTION = 0.1", "CHORD_CONTRACTION = 0.9",
       "tests/test_continuation.py::test_branch_switch_keeps_a_point_between_the_collapse_bounds"),
    _m("mu-guard", "steady", "if not mu >= 0.0:", "if False:",
       "tests/test_continuation.py::test_pinned_sweep_past_the_fold_raises_no_convergence"),
    _m("iterate-clamp", "steady", "x = np.maximum(x + dx, 0.0)", "x = x + dx",
       "tests/test_continuation.py::test_continuation_does_not_jump_off_the_branch"),
    _m("blow-up-guard", "steady", "<= 1e12 * (1.0 + np.max(np.abs(x)))",
       "<= 1e300 * (1.0 + np.max(np.abs(x)))",
       "tests/test_steady.py::test_blown_up_update_is_a_singular_jacobian"),
    _m("backward-error-floor", "steady", "max(scale, 1e-300)", "max(scale, 1.0)",
       "tests/test_steady.py::test_kernel_solve_is_held_to_the_backward_error_bound"),
    _m("default-tol_residual", "steady", "tol_residual: float = 1e-10",
       "tol_residual: float = 1e-8",
       "tests/test_continuation.py::test_a_step_onto_the_predator_only_state_is_retried_at_half_ds"),
    _m("default-max_iter", "steady", "max_iter: int = 50", "max_iter: int = 20",
       "tests/test_harness.py::test_config_text_is_canonical"),
    # config: ContinuationSettings
    _m("default-ds", "config", "ds: float = 0.02", "ds: float = 0.03",
       "tests/test_harness.py::test_verify_64_branch_meets_the_benchmark_reference"),
    _m("default-n_steps", "config", "n_steps: int = 24", "n_steps: int = 20",
       "tests/test_harness.py::test_verify_64_branch_meets_the_benchmark_reference"),
    _m("default-s0", "config", "s0: float = 0.05", "s0: float = 0.04",
       "tests/test_harness.py::test_config_text_is_canonical"),
    # config: _KEYS, each bound loosened by one step (> 0 to >= 0, >= k to
    # >= k - 1), then the literal defaults, then the rule across keys
    _bound("experiment.seed", "int, 0", _NONNEGATIVE, '(">=", -1)', _REJECTED),
    _bound("geometry.nx", "int, 64", '(">=", 4)', '(">=", 3)', _REJECTED),
    _bound("geometry.ny", "int, 64", '(">=", 4)', '(">=", 3)', _REJECTED),
    _bound("geometry.lx", "float, GridSpec.lx", _POSITIVE, _NONNEGATIVE, _REJECTED),
    _bound("geometry.ly", "float, GridSpec.ly", _POSITIVE, _NONNEGATIVE, _REJECTED),
    _bound("geometry.refuge.half_width_x", "float, None", _POSITIVE, _NONNEGATIVE,
           "tests/test_config.py::test_bad_refuge_size_is_a_validation_issue"),
    _bound("geometry.refuge.half_width_y", "float, None", _POSITIVE, _NONNEGATIVE,
           "tests/test_config.py::test_bad_refuge_size_is_a_validation_issue"),
    _bound("geometry.refuge.radius", "float, None", _POSITIVE, _NONNEGATIVE,
           "tests/test_config.py::test_bad_refuge_size_is_a_validation_issue"),
    _bound("params.lambda", "float, _REQUIRED", _POSITIVE, _NONNEGATIVE, _REJECTED),
    _bound("params.m", "float, _REQUIRED", _NONNEGATIVE, '(">=", -1)',
           "tests/test_harness.py::test_negative_m_rejected_with_field_and_bound"),
    _bound("params.c", "float, _REQUIRED", _POSITIVE, _NONNEGATIVE, _REJECTED),
    _bound("params.b", "float, _REQUIRED", _POSITIVE, _NONNEGATIVE,
           "tests/test_harness.py::test_errors_are_aggregated"),
    _bound("params.mu", "float, None", _POSITIVE, _NONNEGATIVE, _REJECTED),
    _bound("params.mu_min", "float, None", _POSITIVE, _NONNEGATIVE, _REJECTED),
    _bound("params.mu_points", "int, None", '(">=", 2)', '(">=", 1)', _REJECTED),
    _bound("solver.newton.tol_residual", "float, NewtonConfig.tol_residual", _POSITIVE,
           _NONNEGATIVE, _REJECTED),
    _bound("solver.newton.max_iter", "int, NewtonConfig.max_iter", '(">=", 2)', '(">=", 1)',
           _REJECTED),
    _bound("solver.transient.dt", "float, TransientConfig.dt", _POSITIVE, _NONNEGATIVE,
           _REJECTED),
    _bound("solver.transient.t_end", "float, TransientConfig.t_end", _POSITIVE, _NONNEGATIVE,
           _REJECTED),
    _bound("solver.transient.steady_tol", "float, TransientConfig.steady_tol", _POSITIVE,
           _NONNEGATIVE, _REJECTED),
    _bound("solver.continuation.ds", "float, ContinuationSettings.ds", _POSITIVE, _NONNEGATIVE,
           _REJECTED),
    _bound("solver.continuation.n_steps", "int, ContinuationSettings.n_steps", '(">=", 1)',
           '(">=", 0)', _REJECTED),
    _bound("solver.continuation.s0", "float, ContinuationSettings.s0", _POSITIVE,
           _NONNEGATIVE, _REJECTED),
    _bound("solver.continuation.amplitude_cap", "float, ContinuationSettings.amplitude_cap",
           _POSITIVE, _NONNEGATIVE, _REJECTED),
    _m("default-seed", "config", '("experiment.seed", int, 0,', '("experiment.seed", int, 1,',
       "tests/test_harness.py::test_minimal_config_fills_defaults"),
    _m("default-nx", "config", '("geometry.nx", int, 64,', '("geometry.nx", int, 32,',
       "tests/test_harness.py::test_minimal_config_fills_defaults"),
    _m("default-ny", "config", '("geometry.ny", int, 64,', '("geometry.ny", int, 32,',
       "tests/test_harness.py::test_minimal_config_fills_defaults"),
    _m("default-refuge-kind", "config", '("geometry.refuge.kind", str, "empty",',
       '("geometry.refuge.kind", str, "disc",',
       "tests/test_config.py::test_render_parse_round_trip"),
    _m("s0-rule", "config", S0_RULE, S0_RULE.replace("0.1", "1.0"),
       "tests/test_config.py::test_each_rule_reports_its_message_and_line"),
]

#: why each mutant without a killer cannot change what the package computes
#: beyond what its contracts allow
EQUIVALENT = {
    "steady-start": (
        "equivalent up to the Newton tolerance: the steady kind's constant start's "
        "predator level decides no state, since from the levels 0.05, 0.5 and 1 (times "
        "lam) Newton lands on the predator-free state (lam, 0) in two iterations at "
        "mu = 0.9 and 1.1 on the 16^2 centred square, within 5.2e-11 of it "
        "(test_constant_start_lands_on_the_predator_free_state); only summary.txt's "
        "residual, below tol_residual, moves"
    ),
    "gershgorin-offset": (
        "any positive offset keeps J - sigma*I nonsingular, since the Gershgorin "
        "right edge bounds every real part, and the returned pair is held to "
        "RESIDUAL_TOL at any shift; at 1e-6 the leading values of the 32^2 and 64^2 "
        "predator-free v-blocks, two coexistence Jacobians and three 12^2 enriched "
        "points moved by at most 2.6e-12 and took the same shift-invert solve counts"
    ),
}


def mutate(root: Path, mutant: Mutant) -> None:
    """Apply mutant to the copy of the checkout at root."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def first_failure(output: str) -> str | None:
    """The test id of pytest's first FAILED or ERROR summary line, without its parameters."""
    match = re.search(r"^(?:FAILED|ERROR) (\S+?)(?:\[\S*\])?(?: - |$)", output, re.MULTILINE)
    return match.group(1) if match else None


def run(mutant: Mutant) -> tuple[str, str | None, float]:
    """(outcome, first failing test, seconds) of tier-1 on a mutated copy of
    the checkout; outcome is "killed", "survived" or "error"."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="refugia-mutant-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work"))
        mutate(root, mutant)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        # the sample's own sync test reads the unmutated text, so it is left out
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore", "tests/test_mutation_sample.py"],
            cwd=root, env=env, capture_output=True, text=True,
        )
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return outcome, first_failure(proc.stdout), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list the entries and exit")
    parser.add_argument("--only", action="append", metavar="NAME", help="run this entry only")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name:24} {m.file}: {m.old.strip()!r} -> {m.new.strip()!r}")
            print(f"{'':24} {m.killer or 'equivalent: ' + EQUIVALENT[m.name]}")
        return 0
    unknown = sorted(set(args.only or ()) - set(by_name))
    if unknown:
        parser.error(f"no such mutant: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.only] if args.only else MUTANTS
    bad = 0
    for m in chosen:
        outcome, test, seconds = run(m)
        line = f"{m.name:24} {outcome:8} {seconds:6.1f} s"
        if outcome == "killed":
            line += f"  by {test}"
            if m.killer is None:
                line += "  (listed as equivalent)"
            elif test != m.killer:
                line += f"  (expected {m.killer})"
        elif m.killer is None:
            line += f"  equivalent: {EQUIVALENT[m.name]}"
        ok = (outcome == "survived" if m.killer is None
              else outcome == "killed" and test == m.killer)
        bad += not ok
        print(line, flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
