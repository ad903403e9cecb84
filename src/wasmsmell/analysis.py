"""Drives the full pipeline for one file or one project tree."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .cfg import build_cfg
from .checkers import check_structural, default_checker_ids, make_flow_checkers
from .cparser import parse_source
from .engine import Budget, analyze_function
from .report import BudgetSummary, Finding, ProjectReport, merge_findings, report_path, warn

SOURCE_EXTENSIONS = (".c", ".h", ".cc", ".cpp", ".cxx", ".hpp", ".hh")


@dataclass
class FileResult:
    path: str
    findings: list[Finding] = field(default_factory=list)
    paths_explored: int = 0
    exhausted_functions: int = 0
    skipped_sites: int = 0


def analyze_source(source, rel_path: str, checker_ids=None, budget: Budget | None = None) -> FileResult:
    """Analyze one source file's text; never raises on malformed input."""
    enabled = list(checker_ids) if checker_ids is not None else default_checker_ids()
    budget = budget or Budget()
    result = FileResult(path=rel_path)

    parsed = parse_source(source)
    structural = check_structural(parsed.unit, enabled)
    result.findings.extend(structural.findings)
    result.skipped_sites = structural.skipped_sites

    for top in parsed.unit.children:
        if top.kind != "FunctionDef":
            continue
        fg = build_cfg(top)
        findings, budget_report = analyze_function(fg, make_flow_checkers(enabled), budget)
        result.findings.extend(findings)
        result.paths_explored += budget_report.paths_explored
        if budget_report.exhausted:
            result.exhausted_functions += 1

    for f in result.findings:
        f.file = rel_path
    return result


def collect_source_files(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    files = [
        p
        for p in root.rglob("*")
        if p.is_file() and p.suffix.lower() in SOURCE_EXTENSIONS
    ]
    return sorted(files)


def analyze_project(
    root: Path,
    checker_ids=None,
    budget: Budget | None = None,
    project: str | None = None,
) -> ProjectReport:
    """Analyze every C/C++ source file under root, one at a time in sorted
    path order, into one merged report. A file that cannot be read or
    analyzed is warned about on stderr and counted as skipped."""
    root = Path(root)
    base = root if root.is_dir() else root.parent
    results = []
    skipped = 0
    for path in collect_source_files(root):
        try:
            data = path.read_bytes()
        except OSError as err:
            warn(f"cannot read {path}: {err}")
            skipped += 1
            continue
        rel = report_path(path.relative_to(base).as_posix())
        try:
            results.append(analyze_source(data, rel, checker_ids, budget))
        except Exception as err:  # one crashing file must not end the run
            warn(f"cannot analyze {path}: {type(err).__name__}: {err}")
            skipped += 1

    report = merge_findings(
        [r.findings for r in results], project=report_path(project or base.name)
    )
    report.files_analyzed = len(results)
    report.files_skipped = skipped
    report.budget = BudgetSummary(
        paths_explored=sum(r.paths_explored for r in results),
        functions_exhausted=sum(r.exhausted_functions for r in results),
        skipped_sites=sum(r.skipped_sites for r in results),
    )
    return report
