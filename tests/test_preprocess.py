from wasmsmell.cparser import parse_source
from wasmsmell.lexer import lex
from wasmsmell.preprocess import preprocess_lite


def lines_of(src, lexeme):
    return [t.span.line for t in lex(src)[0] if t.lexeme == lexeme]


def lexemes(src):
    return [t.lexeme for t in lex(src)[0]]


def test_line_numbers_preserved():
    src = "#include <stdio.h>\n/* a\nb */ int x;\n// tail\nint y;\n"
    assert lines_of(src, "x") == [3]
    assert lines_of(src, "y") == [5]
    assert lexemes(src) == ["int", "x", ";", "int", "y", ";"]


def test_includes_recorded_with_lines():
    src = '#include <stdio.h>\nint a;\n#include "emscripten.h"\n'
    out = preprocess_lite(src)
    assert [(i.target, i.line) for i in out.includes] == [
        ("stdio.h", 1),
        ("emscripten.h", 3),
    ]
    assert out.text == src
    assert out.diagnostics == []


def test_directives_blanked():
    src = "#define FOO 1\n#ifdef FOO\nint x = FOO;\n#endif\n"
    assert lexemes(src) == ["int", "x", "=", "FOO", ";"]
    assert lines_of(src, "x") == [3]


def test_directive_continuation_blanks_both_lines():
    src = "#define LONG \\\n  tail_part\nint z;\n"
    assert lexemes(src) == ["int", "z", ";"]
    assert lines_of(src, "z") == [3]


def test_comment_markers_inside_strings_kept():
    src = 'char *s = "http://x /* y */";\n'
    assert '"http://x /* y */"' in lexemes(src)


def test_block_comment_inside_line():
    assert lexemes("int a /* mid */ = 3;") == ["int", "a", "=", "3", ";"]


def test_unterminated_block_comment_does_not_raise():
    result = parse_source("int a;\n/* never closed\nint b;")
    assert [t.lexeme for t in result.tokens] == ["int", "a", ";"]
    assert [d.message for d in result.diagnostics] == ["unterminated comment"]


def test_unterminated_comment_on_directive_line_still_diagnosed():
    tokens, diags = lex("int a;\n#define X /* never closed\nint b;")
    assert [t.lexeme for t in tokens] == ["int", "a", ";"]
    assert [(d.span.line, d.message) for d in diags] == [(2, "unterminated comment")]


def test_include_inside_block_comment_not_recorded():
    src = "/*\n#include <emscripten.h>\n*/\n\n#include <stdio.h>\n"
    out = preprocess_lite(src)
    assert [(i.target, i.line) for i in out.includes] == [("stdio.h", 5)]


def test_include_after_leading_comment_recorded():
    out = preprocess_lite("/* c */ #include <emscripten.h>\nint x;\n")
    assert [(i.target, i.line) for i in out.includes] == [("emscripten.h", 1)]


def test_include_on_directive_continuation_line_not_recorded():
    # The backslash splices the next line onto the #define: no include starts there.
    out = preprocess_lite("#define X \\\n#include <k.h>\nint x;\n")
    assert out.includes == []
    assert lexemes(out.text) == ["int", "x", ";"]


def test_include_after_continued_string_not_recorded():
    out = preprocess_lite('#define S "a\\\n#include <k.h>\nint x;\n')
    assert out.includes == []
    assert lexemes(out.text) == ["int", "x", ";"]
