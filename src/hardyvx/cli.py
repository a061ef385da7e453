"""Command line entry point.

Subcommands:
  run        execute one scenario from a JSON config file
  catalog    list the built-in exponent functions
  audit-all  audit every catalog entry; exit nonzero if any agreement fails

Exit codes: 0 = success/agreement, 1 = input error, 2 = audit inconsistency.

``run`` and ``audit-all`` take ``-v``, which sends the ``hardyvx``
loggers' INFO lines to stderr, among them the reason for each skipped C1
test function; without it they print nothing.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import __version__
from .catalog import CATALOG
from .config import ConfigError, parse_config
from .report import emit, report_json, run_scenario

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyvx",
        description="Audit variable exponents against the boundedness "
                    "criteria for the Hardy averaging operator on (0,1).")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    logs = argparse.ArgumentParser(add_help=False)
    logs.add_argument("-v", dest="verbose", action="store_true",
                      help="log at level INFO to stderr")

    run = sub.add_parser("run", parents=[logs],
                         help="run one scenario from a JSON config")
    run.add_argument("--config", required=True, help="path to JSON config")
    run.add_argument("--out", default=None,
                     help="output directory (default: config 'out' or '.')")
    run.add_argument("--format", choices=("json", "csv"), default=None,
                     help="output format (default: config 'format' or json)")

    sub.add_parser("catalog", help="list built-in exponent functions")

    audit = sub.add_parser("audit-all", parents=[logs],
                           help="audit the whole built-in catalog")
    audit.add_argument("--out", default=None,
                       help="optional directory for per-entry JSON reports")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print("error: invalid config:", file=sys.stderr)
        for line in exc.errors:
            print(f"  {line}", file=sys.stderr)
        return EXIT_INPUT

    report = run_scenario(cfg)
    fmt = args.format or cfg.format
    out_dir = args.out or cfg.out
    if out_dir:
        try:
            paths = emit(report, fmt, out_dir)
        except (OSError, ValueError) as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_INPUT
        for path in paths:
            print(path)
    else:
        sys.stdout.write(report_json(report))
    return EXIT_OK if report.report.agreement else EXIT_INCONSISTENT


def _cmd_catalog() -> int:
    for entry in CATALOG:
        print(f"{entry.name:24s} expected={entry.expected:9s} "
              f"{entry.description}")
    return EXIT_OK


def _cmd_audit_all(args) -> int:
    worst = EXIT_OK
    for entry in CATALOG:
        cfg = parse_config(json.dumps(
            {"exponent": {"catalog": entry.name}}))
        report = run_scenario(cfg)
        rep = report.report
        status = "agree" if rep.agreement else "INCONSISTENT"
        classes = {k: v.cls for k, v in rep.verdicts.items()
                   if k.startswith("C") or k in ("A", "B")}
        print(f"{entry.name:24s} expected={entry.expected:9s} "
              f"{status:12s} {classes}")
        if args.out:
            emit(report, "json", args.out)
        if not rep.agreement:
            worst = EXIT_INCONSISTENT
    return worst


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "catalog":
        return _cmd_catalog()
    command = _cmd_run if args.command == "run" else _cmd_audit_all
    if not args.verbose:
        return command(args)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: "
                                           "%(message)s"))
    logger = logging.getLogger("hardyvx")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return command(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)


if __name__ == "__main__":
    sys.exit(main())
