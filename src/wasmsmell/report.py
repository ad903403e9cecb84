"""Findings data model, per-project report merging, and corpus statistics.

All machine output is canonical JSON: sorted keys, UTF-8, LF line
endings, trailing newline. Rendering the same document twice is
byte-identical. File names become report text through `report_path`;
every command that walks a tree walks it with `tree_files`.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1


def report_path(path: str | os.PathLike) -> str:
    """A file name as report text: its bytes decoded as UTF-8, with each
    byte that is not UTF-8 written as a `\\xNN` escape."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def warn(message: str):
    """Tell the user on stderr about something the run skipped."""
    print(f"warning: {message}", file=sys.stderr)


def tree_files(root) -> list[Path]:
    """Every file under root, sorted by path: a link to a file is listed,
    and a linked directory is not entered. The walk keeps its own stack,
    so no depth is too deep; a directory or an entry it cannot read is
    warned about and skipped."""
    files, stack = [], [Path(root)]
    while stack:
        top = stack.pop()
        try:
            with os.scandir(top) as it:
                entries = list(it)
        except OSError as err:
            warn(f"cannot read {top}: {err}")
            continue
        for entry in entries:
            path = top / entry.name
            try:
                if entry.is_dir(follow_symlinks=False):
                    stack.append(path)
                elif entry.is_file():
                    files.append(path)
            except OSError as err:  # a link that loops, or a name too long to stat
                warn(f"cannot read {path}: {err}")
    files.sort()
    return files


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
        _require_object(d, "a finding")
        return cls(
            checker=_field(d, "checker", str),
            cwe=_field(d, "cwe", (int, type(None)), None),
            file=_field(d, "file", str),
            line=_field(d, "line", int),
            col=_field(d, "col", int),
            message=_field(d, "message", str),
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
        """The report of a parsed report JSON; ReportError unless it is an
        object of this schema whose fields have their types."""
        _require_object(d, "the report")
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ReportError(
                f"unsupported schema_version {d.get('schema_version')!r}"
            )
        b = _field(d, "budget", dict, {})
        stats = _field(d, "stats", dict, {})
        for checker, count in stats.items():
            if not isinstance(count, int):
                raise ReportError(f"stats count of {checker!r} is not an integer")
        return cls(
            project=_field(d, "project", str),
            files_analyzed=_field(d, "files_analyzed", int, 0),
            files_skipped=_field(d, "files_skipped", int, 0),
            findings=[Finding.from_dict(x) for x in _field(d, "findings", list, [])],
            stats=dict(stats),
            budget=BudgetSummary(
                _field(b, "paths_explored", int, 0),
                _field(b, "functions_exhausted", int, 0),
                _field(b, "skipped_sites", int, 0),
            ),
        )


class ReportError(ValueError):
    pass


_REQUIRED = object()


def _require_object(d, what: str):
    if not isinstance(d, dict):
        raise ReportError(f"{what} is not a JSON object")


def _field(d: dict, key: str, kind, default=_REQUIRED):
    """d[key], or default if the key is absent; ReportError if a required
    key is absent or the value is not of type kind."""
    if key not in d:
        if default is _REQUIRED:
            raise ReportError(f"missing field {key!r}")
        return default
    value = d[key]
    if not isinstance(value, kind):
        raise ReportError(f"field {key!r} has the wrong type {type(value).__name__}")
    return value


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
