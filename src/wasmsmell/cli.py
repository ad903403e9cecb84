"""wasmsmell command line interface.

Exit codes: 0 success / no findings (or positive verdict), 1 findings
present (or negative verdict), 2 usage or I/O error, 3 dataset
integrity error. Machine output goes to stdout or --out; warnings go
to stderr.

Commands report an error by raising: `Failure` with its exit code, or an
OSError or ValueError from their input (exit 2). `main` is the one place
that prints `error: ...` and picks the exit code.

Each subcommand imports only the layer it runs when it is dispatched, so
``collect`` never compiles the C analyzer and ``analyze`` never loads the
dataset code. Defaults that belong to a layer (``--window``,
``--wat2wasm``, ...) stay ``None`` here and are resolved by the command
from that layer's constants.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .report import ProjectReport, canonical_json, compute_corpus_stats, render, report_path

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3


class Failure(Exception):
    """An error a command reports: main prints it and exits with `code`."""

    def __init__(self, message, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


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
    p.add_argument("--top-k", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--damping", type=float)
    p.add_argument("--out")

    p = sub.add_parser("collect", help="collect and deduplicate WebAssembly binaries")
    p.add_argument("root", help="tree to scan for .wasm/.wat files")
    p.add_argument("--dest", required=True, help="dataset directory")
    p.add_argument("--repo-id", help="origin id recorded in the index (default: root name)")
    p.add_argument("--wat2wasm", metavar="CMD",
                   help="converter command template with {in} and {out}")
    p.add_argument("--no-convert", action="store_true", help="skip .wat conversion")
    p.add_argument("--out")

    p = sub.add_parser("build", help="run Emscripten wrapper builds over a repo")
    p.add_argument("root")
    p.add_argument("--cmake-wrapper")
    p.add_argument("--make-wrapper")
    p.add_argument("--timeout", type=float,
                   help="per-directory build timeout in seconds")
    p.add_argument("--out")

    p = sub.add_parser("stats", help="aggregate per-project reports into corpus statistics")
    p.add_argument("reports", nargs="+", help="project report JSON files")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    return parser


def _default(value, fallback):
    """An option's value, or its layer's default when it was not given."""
    return fallback if value is None else value


def cmd_analyze(args) -> int:
    from .analysis import analyze_project
    from .checkers import default_checker_ids, validate_checker_ids
    from .engine import Budget

    root = Path(args.path)
    if not root.exists():
        raise Failure(f"no such path: {root}")
    if args.checkers is not None:
        enabled = validate_checker_ids(args.checkers)
    else:
        enabled = default_checker_ids()
    disabled = set(validate_checker_ids(args.no_checkers))
    enabled = [c for c in enabled if c not in disabled]
    budget = Budget(max_paths=args.max_paths, unroll=args.unroll)
    if budget.max_paths < 1 or budget.unroll < 0:
        raise Failure("--max-paths must be >= 1 and --unroll >= 0")
    report = analyze_project(
        root, checker_ids=enabled, budget=budget, project=args.project
    )
    _write_output(render(report, args.format), args.out)
    return EXIT_FINDINGS if report.findings else EXIT_OK


def cmd_detect_wasm(args) -> int:
    from .wasmdetect import classify_repo

    evidence = classify_repo(args.path)
    doc = {"schema_version": 1, "wasm_target": evidence.to_dict()}
    _write_output(canonical_json(doc), args.out)
    return EXIT_OK if evidence.targeting else EXIT_FINDINGS


def cmd_rank_readme(args) -> int:
    from . import relevance as rel

    top_k = _default(args.top_k, rel.DEFAULT_TOP_K)
    window = _default(args.window, rel.DEFAULT_WINDOW)
    damping = _default(args.damping, rel.DEFAULT_DAMPING)
    if top_k < 1 or window < 2 or not 0.0 < damping < 1.0:
        raise Failure("--top-k must be >= 1, --window >= 2 and --damping in (0, 1)")
    text = Path(args.path).read_text(encoding="utf-8", errors="replace")
    keywords = args.keywords if args.keywords else list(rel.DEFAULT_KEYWORDS)
    verdict = rel.is_relevant(text, keywords=keywords, top_k=top_k, window=window, damping=damping)
    _write_output(canonical_json(verdict.to_dict()), args.out)
    return EXIT_OK if verdict.relevant else EXIT_FINDINGS


def cmd_collect(args) -> int:
    import tempfile

    from . import dataset as ds

    root = Path(args.root)
    if not root.is_dir():
        raise Failure(f"not a directory: {root}")
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
                converter = None if args.no_convert else _default(args.wat2wasm, ds.DEFAULT_WAT2WASM)
                conversion = ds.convert_wat(wat_files, work, converter)
            data = ds.store_dedup_rendered(wasm_files, dest, repo_id, root=root, wat=conversion)
    except ds.IntegrityError as err:
        raise Failure(err, EXIT_INTEGRITY) from None
    _write_output(data, args.out)
    return EXIT_OK


def cmd_build(args) -> int:
    from . import dataset as ds

    root = Path(args.root)
    if not root.is_dir():
        raise Failure(f"not a directory: {root}")
    log = ds.orchestrate_build(
        root,
        cmake_wrapper=_default(args.cmake_wrapper, ds.DEFAULT_CMAKE_WRAPPER),
        make_wrapper=_default(args.make_wrapper, ds.DEFAULT_MAKE_WRAPPER),
        timeout=_default(args.timeout, ds.DEFAULT_BUILD_TIMEOUT),
    )
    _write_output(canonical_json(log.to_dict()), args.out)
    return EXIT_OK


def cmd_stats(args) -> int:
    reports = []
    for path in args.reports:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            reports.append(ProjectReport.from_dict(doc))
        except (OSError, ValueError) as err:  # unreadable, not UTF-8, not JSON, not a report
            raise Failure(f"{path}: {err}") from None
    _write_output(render(compute_corpus_stats(reports), args.format), args.out)
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
    try:
        return _COMMANDS[args.command](args)
    except (Failure, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, Failure) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
