"""``preprocess_lite``: the ``#include`` scan of the WebAssembly target detector.

It runs the lexer's one pass (``lexer.scan``), which drops comments and
directive lines and reads the includes; the text is returned unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import Diagnostic, IncludeRef, decode_source, scan


@dataclass
class PreprocessResult:
    text: str
    includes: list[IncludeRef] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)  # left to lex(text)


def preprocess_lite(source) -> PreprocessResult:
    text = decode_source(source)
    return PreprocessResult(text, scan(text)[2])
