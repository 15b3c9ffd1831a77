"""Command-line entry point: refugia <kind> --config <path> [--out DIR] [--quiet].

Exit status: 0 when all stages succeed (and, for verify, all audits pass),
1 for configuration problems, 2 for run failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import KINDS, parse_config
from .errors import ConfigError, OutputDirUnusable
from .runner import run_experiment

_HELP = {
    "simulate": "integrate the transient system from a seeded start",
    "steady": "Newton-solve the steady system at fixed mu",
    "continue": "trace the coexistence branch from the detected bifurcation",
    "bifurcate": "full pipeline: branches, report, and diagram",
    "verify": "bifurcate plus a pass/fail audit gate on the exit status",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refugia",
        description="steady states, stability, and bifurcation analysis for a "
        "predator-prey model with a prey refuge",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=_HELP[kind])
        sp.add_argument("--config", required=True, help="path to the run config")
        sp.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"refugia: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, kind_override=args.kind)
    except ConfigError as exc:
        print("refugia: invalid configuration:", file=sys.stderr)
        for lineno, msg in exc.issues:
            where = f"line {lineno}" if lineno else "config"
            print(f"  {where}: {msg}", file=sys.stderr)
        return 1

    try:
        manifest = run_experiment(cfg, out_dir=args.out, quiet=args.quiet)
    except OutputDirUnusable as exc:
        print(f"refugia: {exc}", file=sys.stderr)
        return 2
    if not manifest.exit_ok:
        for name, status, detail in manifest.stages:
            if status == "error":
                print(f"refugia: stage {name} failed: {detail}", file=sys.stderr)
        return 2
    if not args.quiet:
        print("[refugia] run complete")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
