"""Lint driver: file discovery, rule dispatch, report assembly."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .framework import Finding, ModuleInfo, all_rules
from .scopes import rule_applies

__all__ = ["LintReport", "lint_paths", "collect_files"]


@dataclass
class LintReport:
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors


def collect_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while preserving the sorted-walk order.
    seen = {}
    for f in files:
        seen.setdefault(f.resolve(), f)
    return list(seen.values())


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with all registered rules.

    ``root`` (default: cwd) is only used to shorten displayed paths.
    """
    report = LintReport()
    display_root = (root or Path.cwd()).resolve()
    rules = all_rules()
    for file_path in collect_files(paths):
        resolved = file_path.resolve()
        try:
            display = str(resolved.relative_to(display_root))
        except ValueError:
            display = str(file_path)
        try:
            module = ModuleInfo.from_path(file_path, display_path=display)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append(f"{display}: {exc}")
            continue
        report.files_checked += 1
        for rule in rules:
            if not rule_applies(rule.id, resolved):
                continue
            for finding, suppression in rule.run(module):
                if suppression is not None:
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
