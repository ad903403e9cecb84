"""Classify a repository as WebAssembly-targeting.

Three textual heuristics, any one of which is decisive:
  H1: a WebAssembly compiler invoked from a build script,
  H2: an Emscripten API header included from C/C++ source,
  H3: the JavaScript WebAssembly API used from JS/TS/HTML.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import SOURCE_EXTENSIONS
from .preprocess import preprocess_lite
from .report import report_path, warn

BUILD_SCRIPT_PATTERNS = ("makefile*", "cmakelists.txt", "*.mk", "*.sh", "*.cmake")
JS_EXTENSIONS = (".js", ".mjs", ".ts", ".html")
WASM_HEADERS = ("emscripten.h", "html5.h")

MAX_TEXT_FILE_BYTES = 1024 * 1024  # larger files are considered binary
BINARY_SNIFF_BYTES = 8192

_H1_RE = re.compile(r"\bemcc\b|\bem\+\+|-target cheerp-wasm|--target=wasm32")
_H3_RE = re.compile(
    r"WebAssembly\.(?:instantiateStreaming|instantiate|compileStreaming|compile|Module|Instance)\b"
)


@dataclass
class Hit:
    file: str  # repo-relative, '/'-separated
    line: int  # 1-based
    text: str  # matched token

    def to_dict(self) -> dict:
        return {"file": self.file, "line": self.line, "text": self.text}


@dataclass
class RepoEvidence:
    h1_build_scripts: list[Hit] = field(default_factory=list)
    h2_headers: list[Hit] = field(default_factory=list)
    h3_js_api: list[Hit] = field(default_factory=list)

    @property
    def targeting(self) -> bool:
        return bool(self.h1_build_scripts or self.h2_headers or self.h3_js_api)

    def to_dict(self) -> dict:
        return {
            "verdict": "targeting" if self.targeting else "not-targeting",
            "h1_build_scripts": [h.to_dict() for h in self.h1_build_scripts],
            "h2_headers": [h.to_dict() for h in self.h2_headers],
            "h3_js_api": [h.to_dict() for h in self.h3_js_api],
        }


def _read_text(path: Path) -> str | None:
    """Read a file unless it looks binary; None means skip."""
    try:
        if path.stat().st_size > MAX_TEXT_FILE_BYTES:
            return None
        data = path.read_bytes()
    except OSError as err:
        warn(f"cannot read {path}: {err}")
        return None
    if b"\0" in data[:BINARY_SNIFF_BYTES]:
        return None
    return data.decode("utf-8", errors="replace")


def _line_hits(rel: str, text: str, pattern: re.Pattern) -> list[Hit]:
    # Lines end at "\n" only, as H2 and the lexer count them; splitlines()
    # would also break at form feeds and lone carriage returns.
    return [
        Hit(rel, lineno, m.group())
        for lineno, line in enumerate(text.split("\n"), start=1)
        for m in pattern.finditer(line)
    ]


def _header_hits(rel: str, text: str) -> list[Hit]:
    hits = []
    for include in preprocess_lite(text).includes:
        final = include.target.replace("\\", "/").rsplit("/", 1)[-1]
        if final in WASM_HEADERS:
            hits.append(Hit(rel, include.line, include.target))
    return hits


def classify_repo(root) -> RepoEvidence:
    """Walk the tree once, reading each file any heuristic applies to."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    evidence = RepoEvidence()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.name.lower()
        suffix = path.suffix.lower()
        build = any(fnmatch.fnmatch(name, pat) for pat in BUILD_SCRIPT_PATTERNS)
        source = suffix in SOURCE_EXTENSIONS
        js = suffix in JS_EXTENSIONS
        if not (build or source or js):
            continue
        text = _read_text(path)
        if text is None:
            continue
        rel = report_path(path.relative_to(root).as_posix())
        if build:
            evidence.h1_build_scripts += _line_hits(rel, text, _H1_RE)
        if source:
            evidence.h2_headers += _header_hits(rel, text)
        if js:
            evidence.h3_js_api += _line_hits(rel, text, _H3_RE)
    for hit_list in (evidence.h1_build_scripts, evidence.h2_headers, evidence.h3_js_api):
        hit_list.sort(key=lambda h: (h.file, h.line))
    return evidence
