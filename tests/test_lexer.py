import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasmsmell.lexer import (
    _LITERALS,
    _TOKEN_RE,
    KEYWORDS,
    KIND_KEYWORD,
    KIND_CHAR,
    KIND_IDENT,
    KIND_INT,
    KIND_PUNCT,
    KIND_STRING,
    KIND_WSTRING,
    Diagnostic,
    Span,
    Token,
    _directive,
    _LineIndex,
    decode_source,
    lex,
    scan,
)
from wasmsmell.cparser import parse_source


def kinds(tokens):
    return [t.kind for t in tokens]


def lexemes(tokens):
    return [t.lexeme for t in tokens]


def test_basic_declaration():
    tokens, diags = lex("int x = 42;")
    assert diags == []
    assert lexemes(tokens) == ["int", "x", "=", "42", ";"]
    assert kinds(tokens) == [KIND_KEYWORD, KIND_IDENT, KIND_PUNCT, KIND_INT, KIND_PUNCT]


def test_spans_are_one_based_and_accurate():
    tokens, _ = lex("int x;\nfree(x);")
    by_lex = {t.lexeme: t for t in tokens}
    assert by_lex["int"].span.line == 1
    assert by_lex["int"].span.col == 1
    assert by_lex["free"].span.line == 2
    assert by_lex["free"].span.col == 1
    assert tokens[1].lexeme == "x"
    assert tokens[1].span.col == 5


def test_string_and_char_literals():
    tokens, diags = lex('printf("a b;c", \'x\');')
    assert diags == []
    assert '"a b;c"' in lexemes(tokens)
    assert "'x'" in lexemes(tokens)
    t = [t for t in tokens if t.kind == KIND_STRING][0]
    assert t.lexeme == '"a b;c"'
    assert [t.lexeme for t in tokens if t.kind == KIND_CHAR] == ["'x'"]


def test_wide_string_literal():
    tokens, _ = lex('wprintf(L"%ls\\n", L"s");')
    wides = [t for t in tokens if t.kind == KIND_WSTRING]
    assert len(wides) == 2
    assert wides[0].lexeme == 'L"%ls\\n"'


def test_string_escapes_do_not_end_literal():
    tokens, diags = lex(r'"a\"b" rest')
    assert diags == []
    assert tokens[0].lexeme == r'"a\"b"'
    assert tokens[1].lexeme == "rest"


def test_comments_are_skipped():
    tokens, _ = lex("a /* b ; c */ d // e\nf")
    assert lexemes(tokens) == ["a", "d", "f"]


def test_multichar_punctuators_longest_match():
    tokens, _ = lex("a->b >= c >> d == e && f || !g")
    puncts = [t.lexeme for t in tokens if t.kind == KIND_PUNCT]
    assert puncts == ["->", ">=", ">>", "==", "&&", "||", "!"]


def test_unlexable_bytes_become_diagnostics_not_crashes():
    tokens, diags = lex("int x = \x01\x02;")
    assert diags
    assert lexemes(tokens)[-1] == ";"


def test_decode_source_accepts_bytes_and_invalid_utf8():
    assert decode_source(b"abc") == "abc"
    text = decode_source(b"a\xffb")
    assert text.startswith("a") and text.endswith("b")


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
def test_lex_is_total_on_bytes(data):
    tokens, _ = lex(decode_source(data))
    for t in tokens:
        assert t.span.length == len(t.lexeme)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.printable, max_size=300))
def test_token_spans_stay_inside_source(text):
    tokens, _ = lex(text)
    for t in tokens:
        assert 0 <= t.span.offset
        assert t.span.offset + t.span.length <= len(text)
        assert text[t.span.offset : t.span.offset + t.span.length] == t.lexeme


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=string.printable, max_size=300))
def test_lexing_is_deterministic(text):
    assert lex(text) == lex(text)


def test_string_continued_onto_a_hash_line_keeps_its_text():
    # backslash-newline splices the lines, so `#def"` belongs to the string
    text = 'x = "abc\\\n#def";\nint y;'
    tokens = parse_source(text).tokens
    assert lexemes(tokens) == ["x", "=", '"abc\\\n#def"', ";", "int", "y", ";"]


def test_char_literal_continued_onto_a_hash_line_keeps_its_text():
    text = "c = '\\\n#x';\nint y;"
    tokens = parse_source(text).tokens
    assert lexemes(tokens) == ["c", "=", "'\\\n#x'", ";", "int", "y", ";"]


# Quotes, backslashes, '#', comment markers and newlines, where a token can
# cross a line or a directive can swallow one.
_EDGE_ATOMS = ['"', "'", "\\", "#", "/", "*", "\n", "\\\n", "/*", "*/", " ", "\t", "a", ";", "("]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_EDGE_ATOMS), max_size=120).map("".join))
def test_parse_source_tokens_match_the_source_at_their_span(text):
    for t in parse_source(text).tokens:
        assert text[t.span.offset : t.span.offset + t.span.length] == t.lexeme


@pytest.mark.parametrize("quote, kind, message", [
    ('"', KIND_STRING, "unterminated string literal"),
    ("'", KIND_CHAR, "unterminated char literal"),
])
def test_literal_ending_in_a_lone_backslash_at_end_of_input(quote, kind, message):
    text = f"x = {quote}a /* b\\"
    tokens, diags = lex(text)
    assert lexemes(tokens) == ["x", "=", f"{quote}a /* b\\"]
    assert tokens[-1].kind == kind
    assert [d.message for d in diags] == [message]


@pytest.mark.parametrize("text, expected, message", [
    ('x = "ab\\"\ny;', ["x", "=", '"ab\\"', "y", ";"], "unterminated string literal"),
    ("c = '\\'", ["c", "=", "'\\'"], "unterminated char literal"),
    ("c = L'\n;", ["c", "=", "L'", ";"], "unterminated char literal"),
])
def test_literal_ending_in_an_escaped_or_opening_quote_is_unterminated(text, expected, message):
    tokens, diags = lex(text)
    assert lexemes(tokens) == expected
    assert [(d.span, d.message) for d in diags] == [(tokens[2].span, message)]


@pytest.mark.parametrize("literal", ['"ab\\\\"', "'\\''", '""', "L\"\\\"x\""])
def test_literal_closed_after_escapes_has_no_diagnostic(literal):
    tokens, diags = lex(f"x = {literal};")
    assert lexemes(tokens) == ["x", "=", literal, ";"]
    assert diags == []


def test_diagnostic_contract():
    span = Span(0, 1, 1, 1)
    d = Diagnostic(span, "unexpected byte '@'")
    assert Diagnostic._fields == ("span", "message", "severity")
    assert d.severity == "recovered"
    assert repr(d) == (
        "Diagnostic(span=Span(offset=0, line=1, col=1, length=1), "
        "message=\"unexpected byte '@'\", severity='recovered')"
    )
    assert hash(d) == hash(Diagnostic(span, "unexpected byte '@'", "recovered"))
    assert len({d, Diagnostic(span, "unexpected byte '@'")}) == 1
    assert lex("@")[1] == [d]


def reference_closed(lexeme, quote):
    """Whether the first unescaped quote after the opening one is the
    literal's last character."""
    i = lexeme.index(quote) + 1
    while i < len(lexeme):
        if lexeme[i] == "\\":
            i += 2
        elif lexeme[i] == quote:
            return i == len(lexeme) - 1
        else:
            i += 1
    return False


def reference_scan(text):
    """The scan as a plain loop: one match per token, spans through
    _LineIndex, and one token and one diagnostic per unlexable character."""
    index = _LineIndex(text)
    tokens, diags, includes = [], [], []
    resumed = pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup == "junk":
            span = index.span(pos, 1)
            tokens.append(Token(KIND_PUNCT, text[pos], span))
            diags.append(Diagnostic(span, f"unexpected byte {text[pos]!r}"))
            pos += 1
            continue
        kind, lexeme = m.lastgroup, m.group()
        span = index.span(pos, len(lexeme))
        if kind == "unclosed":
            diags.append(Diagnostic(span, "unterminated comment"))
        elif lexeme == "#" and (not tokens or tokens[-1].span.end <= text.rfind("\n", 0, pos) + 1):
            gap = max(tokens[-1].span.end if tokens else 0, resumed)
            pos = resumed = _directive(text, gap, pos, index, diags, includes)
            continue
        elif kind == "ident":
            tokens.append(Token(KIND_KEYWORD if lexeme in KEYWORDS else KIND_IDENT, lexeme, span))
        elif kind == "punct":
            tokens.append(Token(KIND_PUNCT, lexeme, span))
        elif kind == "num":
            tokens.append(Token(KIND_INT, lexeme, span))
        elif kind in _LITERALS:
            tk, quote, message = _LITERALS[kind]
            if not reference_closed(lexeme, quote):
                diags.append(Diagnostic(span, message))
            tokens.append(Token(tk, lexeme, span))
        pos = m.end()
    return tokens, diags, includes


# Unlexable characters (U+FFFD, control bytes, @ $ `, a non-ASCII letter)
# next to quotes, backslashes, directives, comment markers and newlines.
_JUNK_ATOMS = [
    "\ufffd", "\ufffd\ufffd", "\x00", "\x01", "\x1b", "\x7f", "@", "$", "`", "\u00e9",
    '"', "'", "L", "\\", "#", "/", "*", "/*", "*/", "//", "\n", "\\\n", " ", "\x0c",
    "a", "1", ";", "{", "}", "include", "<x.h>", '"y.h"',
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_JUNK_ATOMS), max_size=80).map("".join))
def test_scan_equals_the_reference_loop(text):
    assert scan(text) == reference_scan(text)
