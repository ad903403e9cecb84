"""wasmsmell command line interface.

Exit codes: 0 success / no findings (or positive verdict), 1 findings
present (or negative verdict), 2 usage or I/O error, 3 dataset
integrity error. Machine output goes to stdout or --out; warnings go
to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from . import dataset as ds
from . import relevance as rel
from .analysis import analyze_project
from .checkers import (
    UnknownCheckerError,
    default_checker_ids,
    validate_checker_ids,
)
from .engine import Budget
from .report import ProjectReport, ReportError, canonical_json, compute_corpus_stats, render, report_path
from .wasmdetect import classify_repo

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3


def _write_output(data: bytes, out: str | None):
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _comma_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wasmsmell",
        description="Detect WebAssembly compilation smells and curate Wasm project data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze C/C++ sources for compilation smells")
    p.add_argument("path", help="source file or project directory")
    p.add_argument("--checkers", type=_comma_list, metavar="IDS",
                   help="comma-separated checker ids to enable (default: all core checkers)")
    p.add_argument("--no-checkers", type=_comma_list, metavar="IDS", default=[],
                   help="checker ids to disable")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--jobs", type=int, default=1,
                   help="ignored: files are analyzed one at a time")
    p.add_argument("--max-paths", type=int, default=4096,
                   help="path budget per function (default 4096)")
    p.add_argument("--unroll", type=int, default=2,
                   help="loop iterations explored per path (default 2)")
    p.add_argument("--project", help="project id recorded in the report")

    p = sub.add_parser("detect-wasm", help="classify a repo as WebAssembly-targeting")
    p.add_argument("path", help="repository root")
    p.add_argument("--out")

    p = sub.add_parser("rank-readme", help="rank README keywords for Wasm relevance")
    p.add_argument("path", help="README or description text file")
    p.add_argument("--keywords", type=_comma_list, metavar="WORDS",
                   help="keywords to look for (default: wasm,webassembly,web assembly,emscripten)")
    p.add_argument("--top-k", type=int, default=rel.DEFAULT_TOP_K)
    p.add_argument("--window", type=int, default=rel.DEFAULT_WINDOW)
    p.add_argument("--damping", type=float, default=rel.DEFAULT_DAMPING)
    p.add_argument("--out")

    p = sub.add_parser("collect", help="collect and deduplicate WebAssembly binaries")
    p.add_argument("root", help="tree to scan for .wasm/.wat files")
    p.add_argument("--dest", required=True, help="dataset directory")
    p.add_argument("--repo-id", help="origin id recorded in the index (default: root name)")
    p.add_argument("--wat2wasm", default=ds.DEFAULT_WAT2WASM, metavar="CMD",
                   help="converter command template with {in} and {out}")
    p.add_argument("--no-convert", action="store_true", help="skip .wat conversion")
    p.add_argument("--out")

    p = sub.add_parser("build", help="run Emscripten wrapper builds over a repo")
    p.add_argument("root")
    p.add_argument("--cmake-wrapper", default=ds.DEFAULT_CMAKE_WRAPPER)
    p.add_argument("--make-wrapper", default=ds.DEFAULT_MAKE_WRAPPER)
    p.add_argument("--timeout", type=float, default=ds.DEFAULT_BUILD_TIMEOUT,
                   help="per-directory build timeout in seconds")
    p.add_argument("--out")

    p = sub.add_parser("stats", help="aggregate per-project reports into corpus statistics")
    p.add_argument("reports", nargs="+", help="project report JSON files")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    return parser


def cmd_analyze(args) -> int:
    root = Path(args.path)
    if not root.exists():
        print(f"error: no such path: {root}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.checkers is not None:
            enabled = validate_checker_ids(args.checkers)
        else:
            enabled = default_checker_ids()
        disabled = set(validate_checker_ids(args.no_checkers))
    except UnknownCheckerError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    enabled = [c for c in enabled if c not in disabled]
    budget = Budget(max_paths=args.max_paths, unroll=args.unroll)
    if budget.max_paths < 1 or budget.unroll < 0:
        print("error: --max-paths must be >= 1 and --unroll >= 0", file=sys.stderr)
        return EXIT_USAGE
    report = analyze_project(
        root, checker_ids=enabled, budget=budget, project=args.project
    )
    _write_output(render(report, args.format), args.out)
    return EXIT_FINDINGS if report.findings else EXIT_OK


def cmd_detect_wasm(args) -> int:
    try:
        evidence = classify_repo(args.path)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    doc = {"schema_version": 1, "wasm_target": evidence.to_dict()}
    _write_output(canonical_json(doc), args.out)
    return EXIT_OK if evidence.targeting else EXIT_FINDINGS


def cmd_rank_readme(args) -> int:
    path = Path(args.path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    keywords = args.keywords if args.keywords else list(rel.DEFAULT_KEYWORDS)
    verdict = rel.is_relevant(
        text, keywords=keywords, top_k=args.top_k,
        window=args.window, damping=args.damping,
    )
    _write_output(canonical_json(verdict.to_dict()), args.out)
    return EXIT_OK if verdict.relevant else EXIT_FINDINGS


def cmd_collect(args) -> int:
    root = Path(args.root)
    if not root.is_dir():
        print(f"error: not a directory: {root}", file=sys.stderr)
        return EXIT_USAGE
    repo_id = report_path(args.repo_id or root.name)
    dest = Path(args.dest)
    found = ds.scan_binaries(root)
    wasm_files = [p for p, kind in found if kind == "wasm"]
    wat_files = [p for p, kind in found if kind == "wat"]
    try:
        # Converted modules live only until they are stored; a private
        # directory keeps concurrent collects from sharing file names.
        with tempfile.TemporaryDirectory(prefix="wasmsmell-wat-") as work:
            conversion = None
            if wat_files:
                converter = None if args.no_convert else args.wat2wasm
                conversion = ds.convert_wat(wat_files, work, converter)
            data = ds.store_dedup_rendered(wasm_files, dest, repo_id, root=root, wat=conversion)
    except ds.IntegrityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTEGRITY
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(data, args.out)
    return EXIT_OK


def cmd_build(args) -> int:
    root = Path(args.root)
    if not root.is_dir():
        print(f"error: not a directory: {root}", file=sys.stderr)
        return EXIT_USAGE
    log = ds.orchestrate_build(
        root,
        cmake_wrapper=args.cmake_wrapper,
        make_wrapper=args.make_wrapper,
        timeout=args.timeout,
    )
    _write_output(canonical_json(log.to_dict()), args.out)
    return EXIT_OK


def cmd_stats(args) -> int:
    reports = []
    try:
        for path in args.reports:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            reports.append(ProjectReport.from_dict(doc))
        stats = compute_corpus_stats(reports)
    except (OSError, json.JSONDecodeError, KeyError, ReportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(render(stats, args.format), args.out)
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "detect-wasm": cmd_detect_wasm,
    "rank-readme": cmd_rank_readme,
    "collect": cmd_collect,
    "build": cmd_build,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
