import pytest

from wasmsmell.wasmdetect import classify_repo


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def test_h1_emcc_in_makefile(tmp_path):
    write(tmp_path, "Makefile", "all:\n\temcc main.c -o main.js\n")
    ev = classify_repo(tmp_path)
    assert ev.targeting
    assert [(h.file, h.line, h.text) for h in ev.h1_build_scripts] == [("Makefile", 2, "emcc")]
    assert ev.h2_headers == [] and ev.h3_js_api == []


@pytest.mark.parametrize(
    "line,expect",
    [
        ("CC=emcc", True),
        ("gcc main.c  # emcclike is not a compiler", False),
        ("CXX=em++", True),
        ("clang -target cheerp-wasm main.c", True),
        ("clang --target=wasm32 main.c", True),
        ("gcc -o demcc main.c", False),
    ],
)
def test_h1_token_matching(tmp_path, line, expect):
    write(tmp_path, "build.sh", line + "\n")
    assert classify_repo(tmp_path).targeting is expect


def test_h1_only_scans_build_scripts(tmp_path):
    write(tmp_path, "notes.txt", "use emcc to build\n")
    assert not classify_repo(tmp_path).targeting


def test_h2_emscripten_header(tmp_path):
    write(tmp_path, "src/main.c", '#include <stdio.h>\n#include <emscripten.h>\nint main(void){return 0;}\n')
    ev = classify_repo(tmp_path)
    assert ev.targeting
    assert [(h.file, h.line, h.text) for h in ev.h2_headers] == [("src/main.c", 2, "emscripten.h")]


def test_h2_html5_header_with_path(tmp_path):
    write(tmp_path, "a.cpp", '#include <emscripten/html5.h>\n')
    ev = classify_repo(tmp_path)
    assert [(h.file, h.text) for h in ev.h2_headers] == [("a.cpp", "emscripten/html5.h")]


def test_h2_include_inside_comment_ignored(tmp_path):
    write(tmp_path, "a.c", '/* #include <emscripten.h> */\nint x;\n')
    assert not classify_repo(tmp_path).targeting


def test_h2_include_inside_multiline_comment_ignored(tmp_path):
    write(tmp_path, "a.c", "/*\n#include <emscripten.h>\n*/\nint x;\n")
    ev = classify_repo(tmp_path)
    assert not ev.targeting and ev.h2_headers == []


def test_h2_include_spliced_onto_a_define_ignored(tmp_path):
    write(tmp_path, "a.c", "#define A 1 \\\n#include <emscripten.h>\nint x;\n")
    ev = classify_repo(tmp_path)
    assert not ev.targeting and ev.h2_headers == []


def test_h3_js_api(tmp_path):
    write(tmp_path, "web/load.js", 'const m = await WebAssembly.instantiateStreaming(fetch("a.wasm"));\n')
    ev = classify_repo(tmp_path)
    assert ev.targeting
    assert ev.h3_js_api[0].file == "web/load.js"
    assert ev.h3_js_api[0].line == 1
    assert ev.h3_js_api[0].text == "WebAssembly.instantiateStreaming"


def test_h3_in_html(tmp_path):
    write(tmp_path, "index.html", "<script>WebAssembly.instantiate(bytes);</script>\n")
    assert classify_repo(tmp_path).targeting


def test_h3_unrelated_js_ignored(tmp_path):
    write(tmp_path, "app.js", 'console.log("WebAssemblyish but no API use");\n')
    assert not classify_repo(tmp_path).targeting


def test_empty_repo_not_targeting(tmp_path):
    ev = classify_repo(tmp_path)
    assert not ev.targeting
    assert ev.to_dict()["verdict"] == "not-targeting"


def test_prose_only_repo_not_targeting(tmp_path):
    write(tmp_path, "README.md", "This project discusses WebAssembly and emscripten at length.\n")
    write(tmp_path, "docs/notes.txt", "wasm wasm wasm\n")
    assert not classify_repo(tmp_path).targeting


def test_binary_files_skipped(tmp_path):
    (tmp_path / "blob.sh").write_bytes(b"\x00\x01emcc\x02")
    assert not classify_repo(tmp_path).targeting


def test_missing_directory_raises():
    with pytest.raises(FileNotFoundError):
        classify_repo("/nonexistent/path/xyz")


def test_multiple_heuristics_combined(tmp_path):
    write(tmp_path, "Makefile", "all:\n\temcc x.c\n")
    write(tmp_path, "x.c", "#include <emscripten.h>\n")
    write(tmp_path, "x.js", "WebAssembly.Module(b);\n")
    ev = classify_repo(tmp_path)
    assert ev.h1_build_scripts and ev.h2_headers and ev.h3_js_api
    assert ev.to_dict()["verdict"] == "targeting"


def test_one_file_can_hit_two_heuristics(tmp_path):
    write(tmp_path, "makefile.c", "#include <emscripten.h>\n// built with emcc\n")
    ev = classify_repo(tmp_path)
    assert [(h.file, h.line) for h in ev.h1_build_scripts] == [("makefile.c", 2)]
    assert [(h.file, h.line) for h in ev.h2_headers] == [("makefile.c", 1)]


@pytest.mark.parametrize("odd", ["\x0c", "\r", "\x0b", "\x1c"])
def test_h1_h3_lines_count_only_newlines(tmp_path, odd):
    # a form feed or lone carriage return does not start a new line
    (tmp_path / "Makefile").write_bytes(f"all:\n\t@echo {odd} done\n\temcc main.c\n".encode())
    (tmp_path / "app.js").write_bytes(f"// {odd} x\nWebAssembly.instantiate(b);\n".encode())
    ev = classify_repo(tmp_path)
    assert [(h.file, h.line) for h in ev.h1_build_scripts] == [("Makefile", 3)]
    assert [(h.file, h.line) for h in ev.h3_js_api] == [("app.js", 2)]
