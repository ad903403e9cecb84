from wasmsmell.preprocess import preprocess_lite


def test_line_numbers_preserved():
    src = "#include <stdio.h>\n/* a\nb */ int x;\n// tail\nint y;\n"
    out = preprocess_lite(src)
    assert out.text.count("\n") == src.count("\n")
    lines = out.text.splitlines()
    assert "int x;" in lines[2]
    assert "int y;" in lines[4]


def test_includes_recorded_with_lines():
    src = '#include <stdio.h>\nint a;\n#include "emscripten.h"\n'
    out = preprocess_lite(src)
    assert [(i.target, i.line) for i in out.includes] == [
        ("stdio.h", 1),
        ("emscripten.h", 3),
    ]


def test_directives_blanked():
    src = "#define FOO 1\n#ifdef FOO\nint x = FOO;\n#endif\n"
    out = preprocess_lite(src)
    assert "#define" not in out.text
    assert "#ifdef" not in out.text
    assert "int x = FOO;" in out.text


def test_directive_continuation_blanks_both_lines():
    src = "#define LONG \\\n  tail_part\nint z;\n"
    out = preprocess_lite(src)
    assert "tail_part" not in out.text
    assert "int z;" in out.text
    assert out.text.count("\n") == src.count("\n")


def test_comment_markers_inside_strings_kept():
    src = 'char *s = "http://x /* y */";\n'
    out = preprocess_lite(src)
    assert '"http://x /* y */"' in out.text


def test_block_comment_inside_line():
    out = preprocess_lite("int a /* mid */ = 3;")
    assert "mid" not in out.text
    assert "int a" in out.text and "= 3;" in out.text


def test_unterminated_block_comment_does_not_raise():
    out = preprocess_lite("int a;\n/* never closed\nint b;")
    assert "int a;" in out.text
    assert "int b;" not in out.text


def test_include_inside_block_comment_not_recorded():
    src = "/*\n#include <emscripten.h>\n*/\n\n#include <stdio.h>\n"
    out = preprocess_lite(src)
    assert [(i.target, i.line) for i in out.includes] == [("stdio.h", 5)]
