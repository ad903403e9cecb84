"""Findings data model, per-project report merging, and corpus statistics.

All machine output is canonical JSON: sorted keys, UTF-8, LF line
endings, trailing newline. Rendering the same document twice is
byte-identical. File names become report text through `report_path`.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


def report_path(path: str | os.PathLike) -> str:
    """A file name as report text: its bytes decoded as UTF-8, with each
    byte that is not UTF-8 written as a `\\xNN` escape."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def warn(message: str):
    """Tell the user on stderr about something the run skipped."""
    print(f"warning: {message}", file=sys.stderr)


@dataclass
class Finding:
    checker: str
    cwe: int | None
    file: str  # project-relative, '/'-separated
    line: int  # 1-based
    col: int  # 1-based
    message: str

    @property
    def dedup_key(self):
        return (self.checker, self.file, self.line, self.col, self.message)

    @property
    def sort_key(self):
        return (self.file, self.line, self.col, self.checker)

    def to_dict(self) -> dict:
        return {
            "checker": self.checker,
            "cwe": self.cwe,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Finding":
        return cls(
            checker=d["checker"],
            cwe=d.get("cwe"),
            file=d["file"],
            line=d["line"],
            col=d["col"],
            message=d["message"],
        )


@dataclass
class BudgetSummary:
    paths_explored: int = 0
    functions_exhausted: int = 0
    skipped_sites: int = 0

    def to_dict(self) -> dict:
        return {
            "paths_explored": self.paths_explored,
            "functions_exhausted": self.functions_exhausted,
            "skipped_sites": self.skipped_sites,
        }


@dataclass
class ProjectReport:
    project: str
    files_analyzed: int = 0
    files_skipped: int = 0
    findings: list[Finding] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)
    budget: BudgetSummary = field(default_factory=BudgetSummary)
    schema_version: int = SCHEMA_VERSION

    def recompute_stats(self):
        stats: dict[str, int] = {}
        for f in self.findings:
            stats[f.checker] = stats.get(f.checker, 0) + 1
        self.stats = stats

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "project": self.project,
            "files_analyzed": self.files_analyzed,
            "files_skipped": self.files_skipped,
            "findings": [f.to_dict() for f in self.findings],
            "stats": dict(sorted(self.stats.items())),
            "budget": self.budget.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProjectReport":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ReportError(
                f"unsupported schema_version {d.get('schema_version')!r}"
            )
        b = d.get("budget", {})
        return cls(
            project=d["project"],
            files_analyzed=d.get("files_analyzed", 0),
            files_skipped=d.get("files_skipped", 0),
            findings=[Finding.from_dict(x) for x in d.get("findings", [])],
            stats=dict(d.get("stats", {})),
            budget=BudgetSummary(
                b.get("paths_explored", 0),
                b.get("functions_exhausted", 0),
                b.get("skipped_sites", 0),
            ),
        )


class ReportError(ValueError):
    pass


def merge_findings(per_file: list[list[Finding]], project: str = "") -> ProjectReport:
    """Concatenate, dedup, and sort findings from many files."""
    report = ProjectReport(project=project)
    seen = set()
    merged = []
    for batch in per_file:
        for f in batch:
            if f.dedup_key not in seen:
                seen.add(f.dedup_key)
                merged.append(f)
    merged.sort(key=lambda f: f.sort_key)
    report.findings = merged
    report.recompute_stats()
    return report


@dataclass
class CorpusStats:
    # checker -> {"occurences": n, "repositories_affected": m, "fraction_affected": x}
    # The column names deliberately mirror the analysis-summary table they
    # feed ("Occurences" / "Repositories Affected").
    checkers: dict[str, dict] = field(default_factory=dict)
    total_projects: int = 0
    projects_with_any_smell: int = 0

    def to_dict(self) -> dict:
        frac = (
            self.projects_with_any_smell / self.total_projects
            if self.total_projects
            else 0.0
        )
        return {
            "schema_version": SCHEMA_VERSION,
            "checkers": dict(sorted(self.checkers.items())),
            "total_projects": self.total_projects,
            "projects_with_any_smell": {
                "count": self.projects_with_any_smell,
                "fraction": round(frac, 4),
            },
        }


def compute_corpus_stats(reports: list[ProjectReport]) -> CorpusStats:
    ids = [r.project for r in reports]
    if len(set(ids)) != len(ids):
        raise ReportError("duplicate project ids in corpus")
    out = CorpusStats(total_projects=len(reports))
    any_smell = 0
    totals: dict[str, int] = {}
    affected: dict[str, int] = {}
    for r in reports:
        has_any = False
        for checker, count in r.stats.items():
            if count > 0:
                has_any = True
                totals[checker] = totals.get(checker, 0) + count
                affected[checker] = affected.get(checker, 0) + 1
        if has_any:
            any_smell += 1
    out.projects_with_any_smell = any_smell
    for checker in totals:
        frac = affected[checker] / len(reports) if reports else 0.0
        out.checkers[checker] = {
            "occurences": totals[checker],
            "repositories_affected": affected[checker],
            "fraction_affected": round(frac, 4),
        }
    return out


def canonical_json(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode(
        "utf-8"
    )


def render(obj, fmt: str = "json") -> bytes:
    """Serialize a ProjectReport or CorpusStats as canonical JSON or text."""
    if fmt == "json":
        doc = obj.to_dict() if hasattr(obj, "to_dict") else obj
        return canonical_json(doc)
    if fmt == "text":
        if isinstance(obj, ProjectReport):
            lines = [
                f"{f.file}:{f.line}:{f.col}: [{f.checker}] {f.message}"
                for f in obj.findings
            ]
            lines.append(
                f"{len(obj.findings)} finding(s) in {obj.files_analyzed} file(s)"
            )
            return ("\n".join(lines) + "\n").encode("utf-8")
        if isinstance(obj, CorpusStats):
            lines = [f"{'Checker':32} {'Occurences':>10} {'Repositories Affected':>22}"]
            for checker, row in sorted(obj.checkers.items()):
                pct = round(100 * row["fraction_affected"])
                lines.append(
                    f"{checker:32} {row['occurences']:>10} "
                    f"{row['repositories_affected']:>15} ({pct}%)"
                )
            lines.append(
                f"projects with any smell: {obj.projects_with_any_smell}"
                f"/{obj.total_projects}"
            )
            return ("\n".join(lines) + "\n").encode("utf-8")
        return (str(obj) + "\n").encode("utf-8")
    raise ReportError(f"unknown format {fmt!r}")
