"""Drives the full pipeline for one file or one project tree."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .cfg import build_cfg
from .checkers import check_structural, default_checker_ids, make_flow_checkers
from .cparser import parse_source
from .engine import Budget, analyze_function
from .report import BudgetSummary, Finding, ProjectReport, merge_findings

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
    jobs: int = 1,
    project: str | None = None,
) -> ProjectReport:
    """Analyze every C/C++ source file under root into one merged report."""
    root = Path(root)
    files = collect_source_files(root)
    base = root if root.is_dir() else root.parent

    def run_one(path: Path) -> FileResult | None:
        rel = path.relative_to(base).as_posix()
        try:
            data = path.read_bytes()
        except OSError as err:
            print(f"warning: cannot read {path}: {err}", file=sys.stderr)
            return None
        try:
            return analyze_source(data, rel, checker_ids, budget)
        except Exception as err:  # one crashing file must not end the run
            print(f"warning: cannot analyze {path}: {type(err).__name__}: {err}", file=sys.stderr)
            return None

    if jobs > 1 and len(files) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, files))
    else:
        results = [run_one(p) for p in files]

    file_results = [r for r in results if r is not None]
    skipped = len(results) - len(file_results)

    report = merge_findings(
        [r.findings for r in file_results], project=project or base.name
    )
    report.files_analyzed = len(file_results)
    report.files_skipped = skipped
    report.budget = BudgetSummary(
        paths_explored=sum(r.paths_explored for r in file_results),
        functions_exhausted=sum(r.exhausted_functions for r in file_results),
        skipped_sites=sum(r.skipped_sites for r in file_results),
    )
    return report
