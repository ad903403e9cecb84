"""Lightweight preprocessing: strip comments and directives in place.

Comments and preprocessor directive lines are blanked to spaces so that
every surviving token keeps its original offset, line, and column.
``#include`` targets are recorded for the WebAssembly target detector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lexer import Diagnostic, Span, _LineIndex, decode_source


@dataclass
class IncludeRef:
    target: str  # path between <> or "" quotes
    line: int  # 1-based


@dataclass
class PreprocessResult:
    text: str
    includes: list[IncludeRef] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


# Horizontal space only: a directive is one line, and a match that began on
# an earlier blank line would report that line.
_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*(?:<([^>\n]+)>|"([^"\n]+)")', re.MULTILINE)


def preprocess_lite(source) -> PreprocessResult:
    text = decode_source(source)
    index = _LineIndex(text)
    diags: list[Diagnostic] = []

    # Pass 1: blank comments (string-literal aware).
    out = list(text)
    i, n = 0, len(text)
    in_str: str | None = None
    while i < n:
        c = text[i]
        if in_str:
            if c == "\\" and i + 1 < n:
                i += 2
                continue
            if c == in_str or c == "\n":
                in_str = None
            i += 1
        elif c in "\"'":
            in_str = c
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                diags.append(
                    Diagnostic(index.span(i, n - i), "unterminated comment")
                )
                j = n
            else:
                j += 2
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        else:
            i += 1
    text = "".join(out)

    # Blanking keeps every offset, so lines still refer to the source, and
    # an #include inside a comment is no longer there to match.
    includes = [
        IncludeRef(m.group(1) or m.group(2), index.locate(m.start())[0])
        for m in _INCLUDE_RE.finditer(text)
    ]

    # Pass 2: blank directive lines (plus backslash continuations).
    lines = text.split("\n")
    blanked_lines = []
    in_directive = False
    for line in lines:
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            blanked_lines.append(" " * len(line))
        else:
            in_directive = False
            blanked_lines.append(line)
    return PreprocessResult("\n".join(blanked_lines), includes, diags)
