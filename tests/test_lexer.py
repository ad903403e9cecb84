import string

from hypothesis import given, settings
from hypothesis import strategies as st

from wasmsmell.lexer import (
    KIND_KEYWORD,
    KIND_CHAR,
    KIND_IDENT,
    KIND_INT,
    KIND_PUNCT,
    KIND_STRING,
    KIND_WSTRING,
    decode_source,
    lex,
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
