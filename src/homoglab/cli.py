"""Command-line entry point.

    homoglab <sweep|diagram|nonergodic|quenched-vs-mean|cell|solve>
             --config <path> [--out <dir>] [--threads k] [--force]

The subcommand sets the study kind, replacing any `[study] kind` in the file.

Exit codes: 0 success, 1 validation error, 2 solver non-convergence or
failure, or diagram paths that disagree beyond tol_diagram, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .config import STUDY_KINDS, ConfigError, load_config
from .experiments import run_study, write_outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homoglab",
        description="stochastic homogenization laboratory: cell problems, "
        "oscillatory energy minimization, two-scale diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STUDY_KINDS:
        p = sub.add_parser(name, help=f"run the {name} study/operation")
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--threads", type=int, default=1, help="worker processes")
        p.add_argument("--force", action="store_true", help="run despite unresolved mesh")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, kind=args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    out_dir = args.out or cfg.out_dir
    try:
        report = run_study(cfg, threads=max(1, args.threads), force=args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    try:
        paths = write_outputs(report, cfg, out_dir)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 3
    for key in sorted(report.summary):
        print(f"{key} = {report.summary[key]}")
    for p in paths:
        print(f"wrote {p}")
    code = 0
    if report.any_nonconverged:
        print("warning: at least one solve did not reach tolerance", file=sys.stderr)
        code = 2
    if report.summary.get("paths_agree") is False:
        print(
            f"warning: diagram paths disagree, rel_disagreement = "
            f"{report.summary['rel_disagreement']:g} > tol_diagram = {cfg.tol_diagram:g}",
            file=sys.stderr,
        )
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
