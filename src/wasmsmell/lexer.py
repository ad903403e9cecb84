"""Tolerant one-pass lexer for C/C++ source text.

Never fails: ``_TOKEN_RE`` matches at every position of any text. A run
of characters that start no C token is matched once, and each of its
characters becomes a one-character punctuator with an "unexpected byte"
diagnostic. Token spans always index into the original input text. The
same scan drops whitespace, comments and preprocessor directive lines,
and reads the ``#include`` targets of those lines for the WebAssembly
target detector.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

KIND_IDENT = "identifier"
KIND_KEYWORD = "keyword"
KIND_INT = "int-literal"
KIND_STRING = "string-literal"
KIND_WSTRING = "wide-string-literal"
KIND_CHAR = "char-literal"
KIND_PUNCT = "punctuator"

KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    bool class namespace new delete template typename public private
    protected virtual operator using
    """.split()
)


class Span(NamedTuple):
    """Byte offset, 1-based line, 1-based column, and length in the input."""

    offset: int
    line: int
    col: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


class Token(NamedTuple):
    kind: str
    lexeme: str
    span: Span


class Diagnostic(NamedTuple):
    span: Span
    message: str
    severity: str = "recovered"


# Constructors that skip the Python-level __new__ of the NamedTuples; each
# takes one tuple of all the fields.
_new_span = partial(tuple.__new__, Span)
_new_token = partial(tuple.__new__, Token)
_new_diag = partial(tuple.__new__, Diagnostic)


@dataclass
class IncludeRef:
    target: str  # path between <> or "" quotes
    line: int  # 1-based


# Multi-character punctuators must be tried longest-first.
_PUNCTS = [
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>/\*.*?\*/|//[^\n]*)
  | (?P<unclosed>/\*.*)                                # comment to end of input
  | (?P<wstring>L"(?:\\.?|[^"\\\n])*(?:"|(?=\n)|$))
  | (?P<string>"(?:\\.?|[^"\\\n])*(?:"|(?=\n)|$))
  | (?P<char>L?'(?:\\.?|[^'\\\n])*(?:'|(?=\n)|$))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>(?:0[xX][0-9a-fA-F]+|\.?[0-9][0-9a-zA-Z_.]*(?:[eEpP][+-][0-9]+)?))
  | (?P<punct>%s|[-+*/%%=<>!&|^~?:;,.()\[\]{}#\\])
  | (?P<junk>[^\s"'A-Za-z0-9_\-+*/%%=<>!&|^~?:;,.()\[\]{}#\\]+)  # starts no other token
    """
    % "|".join(re.escape(p) for p in _PUNCTS),
    re.VERBOSE | re.DOTALL,
)

_LITERALS = {  # group: token kind, closing quote, shortest closed length, diagnostic
    "string": (KIND_STRING, '"', 2, "unterminated string literal"),
    "wstring": (KIND_WSTRING, '"', 3, "unterminated wide string literal"),
    "char": (KIND_CHAR, "'", 2, "unterminated char literal"),
}

# Matched against directive lines with their comments blanked to spaces.
# Horizontal space only: a match that began on an earlier blank line would
# report that line.
_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*(?:<([^>\n]+)>|"([^"\n]+)")', re.MULTILINE)
_NOT_NEWLINE = re.compile(r"[^\n]")


def decode_source(data) -> str:
    """Accept str or bytes; bytes are decoded as UTF-8 with replacement."""
    if isinstance(data, bytes):
        return data.decode("utf-8", errors="replace")
    return data


class _LineIndex:
    """Maps offsets to 1-based (line, col) positions."""

    def __init__(self, text: str):
        starts = [0]
        pos = text.find("\n")
        while pos != -1:
            starts.append(pos + 1)
            pos = text.find("\n", pos + 1)
        self.starts = starts  # the offset of each line's first character

    def locate(self, offset: int) -> tuple[int, int]:
        i = bisect_right(self.starts, offset) - 1
        return i + 1, offset - self.starts[i] + 1

    def span(self, offset: int, length: int) -> Span:
        line, col = self.locate(offset)
        return Span(offset, line, col, length)


def lex(source) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize arbitrary input. Total: junk bytes become punctuators."""
    return scan(source)[:2]


def scan(source) -> tuple[list[Token], list[Diagnostic], list[IncludeRef]]:
    """``lex`` plus the ``#include`` targets of the directive lines.

    One ``_TOKEN_RE`` match per token, which matches at every position.
    A run of unlexable characters is one match, and gives one punctuator
    and one "unexpected byte" diagnostic per character. A line is a
    directive when its first token, after spaces and comments, is ``#``.
    Its tokens are dropped and raise no diagnostic; an unterminated
    comment that starts on it still does.
    """
    text = decode_source(source)
    index = _LineIndex(text)
    starts = index.starts
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    includes: list[IncludeRef] = []
    add_token = tokens.append
    add_diag = diags.append
    match = _TOKEN_RE.match
    resumed = 0  # where the scan went on after the last directive
    pos = 0
    n = len(text)
    while pos < n:
        m = match(text, pos)
        kind = m.lastgroup
        end = m.end()
        if kind == "ws" or kind == "comment":
            pos = end
            continue
        line = bisect_right(starts, pos)
        line_start = starts[line - 1]
        col = pos - line_start + 1
        if kind == "junk":
            # One punctuator and one diagnostic per character; the run
            # holds no newline, so it stays on one line.
            for ch in text[pos:end]:
                span = _new_span((pos, line, col, 1))
                add_token(_new_token((KIND_PUNCT, ch, span)))
                add_diag(_new_diag((span, f"unexpected byte {ch!r}", "recovered")))
                pos += 1
                col += 1
            continue
        span = _new_span((pos, line, col, end - pos))
        if kind == "unclosed":
            add_diag(_new_diag((span, "unterminated comment", "recovered")))
            pos = end
            continue
        lexeme = m.group()
        if kind == "ident":
            tk = KIND_KEYWORD if lexeme in KEYWORDS else KIND_IDENT
        elif kind == "punct":
            if lexeme == "#" and (not tokens or tokens[-1].span.end <= line_start):
                gap = max(tokens[-1].span.end if tokens else 0, resumed)
                pos = resumed = _directive(text, gap, pos, index, diags, includes)
                continue
            tk = KIND_PUNCT
        elif kind == "num":
            tk = KIND_INT
        else:
            tk, quote, shortest, message = _LITERALS[kind]
            if end - pos < shortest or not lexeme.endswith(quote):
                add_diag(_new_diag((span, message, "recovered")))
        add_token(_new_token((tk, lexeme, span)))
        pos = end
    return tokens, diags, includes


def _directive(text, gap, hash_pos, index, diags, includes) -> int:
    """Drop the directive whose ``#`` is at ``hash_pos`` and read its
    includes; return where the scan goes on. From the token boundary
    ``gap`` to ``hash_pos`` there are only whitespace and comments.

    The directive runs on to the next line while the last non-space
    character of its line, comments blanked, is a backslash.
    """
    out = []  # the text from gap on, comments blanked to spaces
    last = ""  # the last non-space character of the current line
    pos = gap
    n = resume = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        end = m.end()
        piece = text[pos:end]
        comment = m.lastgroup in ("comment", "unclosed")
        if comment:
            if m.lastgroup == "unclosed":
                diags.append(Diagnostic(index.span(pos, end - pos), "unterminated comment"))
            piece = _NOT_NEWLINE.sub(" ", piece)
        off = 0
        for k, seg in enumerate(piece.split("\n")):
            if k and pos >= hash_pos:  # newlines before '#' are in the gap
                if last != "\\":
                    break
                last = ""
            last = seg.rstrip()[-1:] or last
            off += len(seg) + 1
        else:
            out.append(piece)
            pos = end
            continue
        # The newline at piece[off - 1] ends the directive. Inside a comment,
        # the scan goes on after the comment, whose rest is blank.
        out.append(piece[: off - 1])
        resume = end if comment else pos + off - 1
        break
    # The directive's first line may start inside a comment that ends at gap.
    line_start = text.rfind("\n", 0, hash_pos) + 1
    blanked = " " * (gap - line_start) + "".join(out)[max(line_start - gap, 0):]
    line = index.locate(line_start)[0]
    for m in _INCLUDE_RE.finditer(blanked):
        includes.append(IncludeRef(m.group(1) or m.group(2), line + blanked.count("\n", 0, m.start())))
    return resume
