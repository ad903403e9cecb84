"""Tolerant one-pass lexer for C/C++ source text.

Never fails: ``_SCAN_RE`` matches at every position of any text, once
per token, skipping the whitespace and comments before it. A run of
characters that start no C token is matched once, and each of its
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

# File suffixes read as C/C++ source by the analyzer and the Wasm detector.
SOURCE_EXTENSIONS = (".c", ".h", ".cc", ".cpp", ".cxx", ".hpp", ".hh")

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


# A Span from one tuple of its fields, skipping the Python-level __new__.
_new_span = partial(tuple.__new__, Span)


@dataclass
class IncludeRef:
    target: str  # path between <> or "" quotes
    line: int  # 1-based


# Multi-character punctuators must be tried longest-first.
_PUNCTS = [
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::",
]

# Every rule of the scan, in the order the alternatives are tried. The
# first two match what the scan skips; each of the others starts a token.
_RULES = {
    "ws": r"\s+",
    "comment": r"/\*.*?\*/|//[^\n]*",
    "unclosed": r"/\*.*",  # comment to end of input
    "wstring": r'L"(?:\\.?|[^"\\\n])*(?:"|(?=\n)|$)',
    "string": r'"(?:\\.?|[^"\\\n])*(?:"|(?=\n)|$)',
    "char": r"L?'(?:\\.?|[^'\\\n])*(?:'|(?=\n)|$)",
    "ident": r"[A-Za-z_][A-Za-z0-9_]*",
    "num": r"(?:0[xX][0-9a-fA-F]+|\.?[0-9][0-9a-zA-Z_.]*(?:[eEpP][+-][0-9]+)?)",
    "punct": "|".join(re.escape(p) for p in _PUNCTS) + r"|[-+*/%=<>!&|^~?:;,.()\[\]{}#\\]",
    "junk": r"""[^\s"'A-Za-z0-9_\-+*/%=<>!&|^~?:;,.()\[\]{}#\\]+""",  # starts no other token
}


def _alternatives(names) -> str:
    return "|".join(f"(?P<{name}>{_RULES[name]})" for name in names)


# One whitespace run, comment or token per match; used on directive lines.
_TOKEN_RE = re.compile(_alternatives(_RULES), re.DOTALL)
# The scan's pattern: the whitespace and closed comments before a token,
# then the token. Only when just those are left does it match up to the
# end of the input, with no group set. The skipped prefix cannot end in
# more than one way, and the token part matches at any other position,
# so a match never backtracks into the prefix.
_SCAN_RE = re.compile(
    r"\s*(?:(?:%s)\s*)*(?:%s|\Z)"
    % (_RULES["comment"], _alternatives([name for name in _RULES if name not in ("ws", "comment")])),
    re.DOTALL,
)

_LITERALS = {  # group: token kind, quote, diagnostic when unterminated
    "string": (KIND_STRING, '"', "unterminated string literal"),
    "wstring": (KIND_WSTRING, '"', "unterminated wide string literal"),
    "char": (KIND_CHAR, "'", "unterminated char literal"),
}

# Matched at the start of a directive's '#' line, its comments blanked to
# spaces. Horizontal space only, so the match stays on that line.
_INCLUDE_RE = re.compile(r'[ \t]*#[ \t]*include[ \t]*(?:<([^>\n]+)>|"([^"\n]+)")')
_NOT_NEWLINE = re.compile(r"[^\n]")


def _closed(lexeme: str, quote: str) -> bool:
    """Whether a literal ends in a closing quote: a quote after the opening
    one, preceded by an even number of backslashes. A literal that stops at
    a newline or the end of the input right after an escaped quote, or
    right after its opening quote, is unterminated."""
    opening = lexeme.index(quote)
    if len(lexeme) - opening < 2 or lexeme[-1] != quote:
        return False
    body = lexeme[opening + 1 : -1]
    return (len(body) - len(body.rstrip("\\"))) % 2 == 0


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

    One ``_SCAN_RE`` match per token, which also skips the whitespace and
    closed comments before it. A run of unlexable characters is one
    match, and gives one punctuator and one "unexpected byte" diagnostic
    per character. A line is a directive when its first token, after
    spaces and comments, is ``#``. Its tokens are dropped and raise no
    diagnostic; an unterminated comment that starts on it still does.
    """
    text = decode_source(source)
    index = _LineIndex(text)
    starts = index.starts
    n = len(text)
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    includes: list[IncludeRef] = []
    add_token = tokens.append
    add_diag = diags.append
    match = _SCAN_RE.match
    new = tuple.__new__
    unexpected: dict[str, str] = {}  # character -> its diagnostic message
    line, line_start = 1, 0
    next_start = starts[1] if len(starts) > 1 else n + 1  # where the next line starts
    resumed = 0  # where the scan went on after the last directive
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        if kind is None:  # only whitespace and comments were left
            break
        start, pos = m.span(kind)
        if start >= next_start:
            line = bisect_right(starts, start)
            line_start = starts[line - 1]
            next_start = starts[line] if line < len(starts) else n + 1
        lexeme = text[start:pos]
        if kind == "ident":
            span = new(Span, (start, line, start - line_start + 1, pos - start))
            add_token(new(Token, (KIND_KEYWORD if lexeme in KEYWORDS else KIND_IDENT, lexeme, span)))
        elif kind == "punct":
            if lexeme == "#" and (not tokens or tokens[-1].span.end <= line_start):
                # A directive ends at its line's end unless a comment or a
                # backslash there carries it on. A literal crosses the line
                # end only after such a backslash, and a comment that ends
                # on this line leaves its "*/" here.
                eol = text.find("\n", start)
                if eol == -1:
                    eol = n
                body = text[line_start:eol]
                if "/*" in body or "*/" in body or "//" in body or body.rstrip().endswith("\\"):
                    gap = max(tokens[-1].span.end if tokens else 0, resumed)
                    pos = _directive(text, gap, start, index, diags, includes)
                else:
                    include = _INCLUDE_RE.match(body)
                    if include:
                        includes.append(IncludeRef(include.group(1) or include.group(2), line))
                    pos = eol
                resumed = pos
                continue
            add_token(new(Token, (KIND_PUNCT, lexeme, new(Span, (start, line, start - line_start + 1, pos - start)))))
        elif kind == "num":
            add_token(new(Token, (KIND_INT, lexeme, new(Span, (start, line, start - line_start + 1, pos - start)))))
        elif kind == "junk":
            # One punctuator and one diagnostic per character; the run
            # holds no newline, so it stays on one line.
            col = start - line_start + 1
            for ch in lexeme:
                span = new(Span, (start, line, col, 1))
                add_token(new(Token, (KIND_PUNCT, ch, span)))
                message = unexpected.get(ch)
                if message is None:
                    message = unexpected[ch] = f"unexpected byte {ascii(ch)}"
                add_diag(new(Diagnostic, (span, message, "recovered")))
                start += 1
                col += 1
        elif kind == "unclosed":
            span = new(Span, (start, line, start - line_start + 1, pos - start))
            add_diag(new(Diagnostic, (span, "unterminated comment", "recovered")))
        else:
            span = new(Span, (start, line, start - line_start + 1, pos - start))
            tk, quote, message = _LITERALS[kind]
            if not _closed(lexeme, quote):
                add_diag(new(Diagnostic, (span, message, "recovered")))
            add_token(new(Token, (tk, lexeme, span)))
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
    # Only the '#' line can name an include: a line spliced on by a
    # backslash continues the directive, it does not start one.
    include = _INCLUDE_RE.match(blanked)
    if include:
        includes.append(IncludeRef(include.group(1) or include.group(2), index.locate(line_start)[0]))
    return resume
