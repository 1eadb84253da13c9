"""Command-line interface for the devtools linter.

Exit codes: 0 clean, 1 findings (or parse errors), 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from pathlib import Path
from typing import Optional, Sequence

from .framework import all_rules
from .runner import LintReport, lint_paths

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools",
        description="Project-specific static analysis for the FlexVC reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="lint source trees against the invariant rules")
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )

    sub.add_parser("rules", help="print every rule with its rationale")
    return parser


def _render_text(report: LintReport, out: "object") -> None:
    write = getattr(out, "write")
    for finding in report.findings:
        write(finding.render() + "\n")
    for error in report.parse_errors:
        write(f"parse error: {error}\n")
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_checked} file(s)"
        f" ({len(report.suppressed)} suppressed)"
    )
    write(summary + "\n")


def cmd_lint(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            "error: no such path(s): " + ", ".join(str(p) for p in missing),
            file=sys.stderr,
        )
        return 2
    report = lint_paths(paths)
    if args.format == "json":
        payload = {
            "files_checked": report.files_checked,
            "findings": [f.to_dict() for f in report.findings],
            "suppressed": [f.to_dict() for f in report.suppressed],
            "parse_errors": report.parse_errors,
            "clean": report.clean,
        }
        print(json.dumps(payload, indent=2))
    else:
        _render_text(report, sys.stdout)
    return 0 if report.clean else 1


def cmd_rules() -> int:
    for rule in all_rules():
        print(f"{rule.id}")
        print(f"  {rule.summary}")
        doc = " ".join(rule.doc.split())
        for line in textwrap.wrap(doc, width=74, break_on_hyphens=False):
            print(f"    {line}")
        print()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "rules":
        return cmd_rules()
    parser.error(f"unknown command: {args.command}")
    return 2
