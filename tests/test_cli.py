import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, SMELLS
from wasmsmell import analysis, dataset
from wasmsmell.checkers import all_checker_ids
from wasmsmell.cli import main

CLEAN = b"int add(int a, int b) { return a + b; }\n"
SMELLY = (
    b"#include <stdlib.h>\n"
    b"int main(void) { char *p = (char *)malloc(8); free(p); free(p); return 0; }\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_clean_file_exit_zero(tmp_path, capsys):
    f = tmp_path / "a.c"
    f.write_bytes(CLEAN)
    code, out, _ = run_cli(capsys, "analyze", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["findings"] == []
    assert doc["files_analyzed"] == 1


def test_analyze_findings_exit_one(tmp_path, capsys):
    f = tmp_path / "a.c"
    f.write_bytes(SMELLY)
    code, out, _ = run_cli(capsys, "analyze", str(f))
    assert code == 1
    doc = json.loads(out)
    assert doc["stats"] == {"double-free": 1}


def test_analyze_missing_path_exit_two(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/dir")
    assert code == 2
    assert "error" in err


def test_analyze_unknown_checker_exit_two(tmp_path, capsys):
    f = tmp_path / "a.c"
    f.write_bytes(CLEAN)
    code, _, err = run_cli(capsys, "analyze", str(f), "--checkers", "bogus")
    assert code == 2
    assert "bogus" in err


def test_analyze_no_checkers_disables(tmp_path, capsys):
    f = tmp_path / "a.c"
    f.write_bytes(SMELLY)
    code, out, _ = run_cli(capsys, "analyze", str(f), "--no-checkers", "double-free")
    assert code == 0
    assert json.loads(out)["findings"] == []


def test_analyze_text_format(tmp_path, capsys):
    f = tmp_path / "a.c"
    f.write_bytes(SMELLY)
    code, out, _ = run_cli(capsys, "analyze", str(f), "--format", "text")
    assert code == 1
    assert "[double-free]" in out


def test_analyze_out_file(tmp_path, capsys):
    f = tmp_path / "a.c"
    f.write_bytes(SMELLY)
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", str(f), "--out", str(dest))
    assert code == 1
    assert out == ""
    assert json.loads(dest.read_text())["stats"] == {"double-free": 1}


def test_analyze_enables_optional_checker(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(SMELLS / "j_alloca_free.c"), "--checkers", "alloca-free"
    )
    assert code == 1
    assert json.loads(out)["stats"] == {"alloca-free": 1}


@pytest.mark.parametrize("fmt,expected", [("json", "report.json"), ("text", "report.txt")])
def test_analyze_fixtures_report_bytes_pinned(fmt, expected, tmp_path, capsys):
    # tests/fixtures/expected/ holds this same command's output, so any
    # change to what the report says or how it is rendered shows here.
    dest = tmp_path / expected
    code, _, _ = run_cli(
        capsys, "analyze", str(FIXTURES), "--checkers", ",".join(all_checker_ids()),
        "--format", fmt, "--out", str(dest),
    )
    assert code == 1
    assert dest.read_bytes() == (FIXTURES / "expected" / expected).read_bytes()


def test_detect_wasm_exit_codes(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "Makefile").write_text("all:\n\temcc x.c\n")
    code, out, _ = run_cli(capsys, "detect-wasm", str(repo))
    assert code == 0
    assert json.loads(out)["wasm_target"]["verdict"] == "targeting"

    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run_cli(capsys, "detect-wasm", str(empty))
    assert code == 1
    assert json.loads(out)["wasm_target"]["verdict"] == "not-targeting"

    code, _, err = run_cli(capsys, "detect-wasm", str(tmp_path / "missing"))
    assert code == 2


def test_rank_readme_exit_codes(tmp_path, capsys):
    pos = tmp_path / "pos.md"
    pos.write_text("wasm everywhere: wasm modules, wasm runtimes, wasm tools.\n")
    code, out, _ = run_cli(capsys, "rank-readme", str(pos))
    assert code == 0
    assert json.loads(out)["matched_keyword"] == "wasm"

    neg = tmp_path / "neg.md"
    neg.write_text("A parser generator for context free grammars.\n")
    code, out, _ = run_cli(capsys, "rank-readme", str(neg))
    assert code == 1

    code, _, _ = run_cli(capsys, "rank-readme", str(tmp_path / "absent.md"))
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--window", "1"), ("--window", "0"),
    ("--damping", "1"), ("--damping", "0"), ("--damping", "nan"),
    ("--top-k", "-3"), ("--top-k", "0"),
])
def test_rank_readme_rejects_out_of_range_numbers(flag, value, tmp_path, capsys):
    f = tmp_path / "r.md"
    f.write_text("wasm everywhere: wasm modules, wasm runtimes, wasm tools.\n")
    code, out, err = run_cli(capsys, "rank-readme", str(f), flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err


def test_rank_readme_custom_keywords(tmp_path, capsys):
    f = tmp_path / "r.md"
    f.write_text("cheerp output cheerp tooling cheerp docs\n")
    code, out, _ = run_cli(capsys, "rank-readme", str(f), "--keywords", "cheerp")
    assert code == 0


def test_collect_and_integrity_exit_codes(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.wasm").write_bytes(b"\0asm1")
    (tree / "b.wasm").write_bytes(b"\0asm1")
    (tree / "c.wasm").write_bytes(b"\0asm2")
    dest = tmp_path / "ds"
    code, out, _ = run_cli(capsys, "collect", str(tree), "--dest", str(dest))
    assert code == 0
    assert out.encode() == (dest / "index.json").read_bytes()
    doc = json.loads(out)
    assert len(doc["entries"]) == 2
    assert sum(len(e["origins"]) for e in doc["entries"]) == 3

    stored = next(dest.glob("*.wasm"))
    stored.write_bytes(b"tampered")
    code, _, err = run_cli(capsys, "collect", str(tree), "--dest", str(dest))
    assert code == 3
    assert "hash" in err


def test_collect_rerun_with_failing_converter_is_idempotent(tmp_path, capsys, monkeypatch):
    tool = tmp_path / "bin" / "failwat"
    tool.parent.mkdir()
    tool.write_text('#!/bin/sh\necho "syntax error" >&2\nexit 1\n')
    tool.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tool.parent}:{os.environ['PATH']}")
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.wasm").write_bytes(b"\0asm1")
    (tree / "m.wat").write_text("(module")
    dest = tmp_path / "ds"
    argv = ("collect", str(tree), "--dest", str(dest), "--wat2wasm", "failwat {in} {out}")

    assert run_cli(capsys, *argv)[0] == 0
    first = (dest / "index.json").read_bytes()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (dest / "index.json").read_bytes() == first
    assert out.encode() == first
    (unconverted,) = json.loads(first)["wat"]["unconverted"]
    assert unconverted["path"].endswith("m.wat")
    assert "syntax error" in unconverted["stderr"]


def fake_converter(tmp_path, monkeypatch, name, body):
    tool = tmp_path / "bin" / name
    tool.parent.mkdir(exist_ok=True)
    tool.write_text("#!/bin/sh\n" + body)
    tool.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tool.parent}:{os.environ['PATH']}")


def test_collect_counts_a_converted_wat_once_under_its_own_path(tmp_path, capsys, monkeypatch):
    fake_converter(tmp_path, monkeypatch, "cpwat", 'cp "$1" "$2"\n')
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "m.wat").write_text("(module)")
    dest = tmp_path / "ds"
    argv = ("collect", str(tree), "--dest", str(dest), "--wat2wasm", "cpwat {in} {out}")

    written = []
    for _ in range(3):
        assert run_cli(capsys, *argv)[0] == 0
        written.append((dest / "index.json").read_bytes())
    assert written[1] == written[2]
    doc = json.loads(written[2])
    assert doc["wat"] == {"converted": 1, "unconverted": []}
    (entry,) = doc["entries"]
    assert entry["origins"] == [{"repo": "tree", "path": "m.wat"}]


def test_collect_drops_unconverted_wat_once_it_converts(tmp_path, capsys, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "m.wat").write_text("(module)")
    dest = tmp_path / "ds"
    argv = ("collect", str(tree), "--dest", str(dest), "--wat2wasm", "flakywat {in} {out}")

    fake_converter(tmp_path, monkeypatch, "flakywat", 'echo "syntax error" >&2\nexit 1\n')
    assert run_cli(capsys, *argv)[0] == 0
    (unconverted,) = json.loads((dest / "index.json").read_bytes())["wat"]["unconverted"]
    assert unconverted["path"] == "m.wat"

    fake_converter(tmp_path, monkeypatch, "flakywat", 'cp "$1" "$2"\n')
    assert run_cli(capsys, *argv)[0] == 0
    assert json.loads((dest / "index.json").read_bytes())["wat"] == {"converted": 1, "unconverted": []}


def test_collect_leaves_only_stored_blobs_and_index(tmp_path, capsys, monkeypatch):
    fake_converter(tmp_path, monkeypatch, "cpwat", 'cp "$1" "$2"\n')
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "m.wat").write_bytes(b"(module)")
    dest = tmp_path / "ds"
    argv = ("collect", str(tree), "--dest", str(dest), "--wat2wasm", "cpwat {in} {out}")

    for _ in range(2):
        assert run_cli(capsys, *argv)[0] == 0
    stored = hashlib.sha256(b"(module)").hexdigest() + ".wasm"
    assert sorted(p.name for p in dest.rglob("*")) == sorted([stored, "index.json"])
    assert list(scratch.iterdir()) == []

    (dest / stored).write_bytes(b"tampered")
    assert run_cli(capsys, *argv)[0] == 3
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize(
    "index",
    [
        b'{"entries": [',  # not JSON
        b"\xff\xfe{}",  # not UTF-8
        b"[]",
        b'{"entries": {}}',
        b'{"entries": [{"hash": "ab"}]}',  # no origins
        b'{"entries": [{"hash": 7, "origins": []}]}',
        b'{"entries": [{"hash": "ab", "origins": [{"repo": "r"}]}]}',
        b'{"entries": [{"hash": "ab", "origins": [{"repo": "r", "path": 1}]}]}',
        b'{"entries": [{"hash": "ab", "origins": [{"repo": "r", "path": "p", "x": 0}]}]}',
        b'{"entries": [], "wat": {"converted": "1"}}',
    ],
)
def test_collect_broken_index_is_an_integrity_error(index, tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.wasm").write_bytes(b"\0asm1")
    dest = tmp_path / "ds"
    dest.mkdir()
    (dest / "index.json").write_bytes(index)
    code, out, err = run_cli(capsys, "collect", str(tree), "--dest", str(dest))
    assert code == 3
    assert out == ""
    assert str(dest / "index.json") in err
    assert "Traceback" not in err
    assert (dest / "index.json").read_bytes() == index


def test_recollect_leaves_index_file_untouched(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.wasm").write_bytes(b"\0asm1")
    (tree / "b.wasm").write_bytes(b"\0asm2")
    dest = tmp_path / "ds"
    argv = ("collect", str(tree), "--dest", str(dest))
    assert run_cli(capsys, *argv)[0] == 0
    before = (dest / "index.json").stat()
    time.sleep(0.01)  # a rewrite would now get a later mtime
    for fresh_process in (False, True):
        if fresh_process:
            dataset._CACHE.clear()
        code, out, _ = run_cli(capsys, *argv)
        after = (dest / "index.json").stat()
        assert code == 0
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert out.encode() == (dest / "index.json").read_bytes()


def test_collect_missing_root(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "collect", str(tmp_path / "nope"), "--dest", str(tmp_path / "d"))
    assert code == 2


def test_build_reports_toolchain_unavailable(tmp_path, capsys):
    (tmp_path / "CMakeLists.txt").write_text("project(x)\n")
    code, out, _ = run_cli(
        capsys, "build", str(tmp_path),
        "--cmake-wrapper", "missing-wrapper-tool .",
        "--make-wrapper", "missing-wrapper-tool",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["directories"][0]["steps"][0]["status"] == "toolchain-unavailable"


def test_stats_over_reports(tmp_path, capsys):
    f1 = tmp_path / "one.c"
    f1.write_bytes(SMELLY)
    r1 = tmp_path / "r1.json"
    run_cli(capsys, "analyze", str(f1), "--project", "p1", "--out", str(r1))
    f2 = tmp_path / "two.c"
    f2.write_bytes(CLEAN)
    r2 = tmp_path / "r2.json"
    run_cli(capsys, "analyze", str(f2), "--project", "p2", "--out", str(r2))

    code, out, _ = run_cli(capsys, "stats", str(r1), str(r2))
    assert code == 0
    doc = json.loads(out)
    assert doc["checkers"]["double-free"]["occurences"] == 1
    assert doc["checkers"]["double-free"]["repositories_affected"] == 1
    assert doc["total_projects"] == 2


def test_stats_bad_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "stats", str(bad))
    assert code == 2


@pytest.mark.parametrize("data, says", [
    (b"\xff\xfe{}", "codec can't decode"),
    (b"[]", "not a JSON object"),
    (b"{}", "unsupported schema_version"),
    (b'{"schema_version": 1}', "missing field 'project'"),
    (b'{"schema_version": 1, "project": ["p"]}', "field 'project'"),
    (b'{"schema_version": 1, "project": "p", "stats": ["double-free"]}', "field 'stats'"),
    (b'{"schema_version": 1, "project": "p", "stats": {"double-free": "1"}}', "'double-free'"),
    (b'{"schema_version": 1, "project": "p", "findings": 5}', "field 'findings'"),
    (b'{"schema_version": 1, "project": "p", "findings": [1]}', "a finding is not"),
    (b'{"schema_version": 1, "project": "p", "findings": [{"checker": "x"}]}', "missing field 'file'"),
    (b'{"schema_version": 1, "project": "p", "budget": 5}', "field 'budget'"),
    (b'{"schema_version": 1, "project": "p", "budget": {"paths_explored": "3"}}', "field 'paths_explored'"),
])
def test_stats_bad_report_exit_two(data, says, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run_cli(capsys, "stats", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: ") and says in err


def test_jobs_byte_identical(tmp_path, capsys):
    proj = tmp_path / "proj"
    proj.mkdir()
    for i in range(12):
        (proj / f"f{i:02}.c").write_bytes(SMELLY if i % 3 == 0 else CLEAN)
    out1 = tmp_path / "r1.json"
    out8 = tmp_path / "r8.json"
    run_cli(capsys, "analyze", str(proj), "--jobs", "1", "--out", str(out1))
    run_cli(capsys, "analyze", str(proj), "--jobs", "8", "--out", str(out8))
    assert out1.read_bytes() == out8.read_bytes()


DEEP = b"int f(void) { int x = " + b"+".join([b"1"] * 600) + b"; return x; }\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_analyze_crashing_file_is_skipped_not_fatal(tmp_path, capsys, monkeypatch, jobs):
    # No input is known to crash analyze_source, so the crash is injected:
    # parsing deep.c raises as a runaway recursion would.
    real_parse = analysis.parse_source

    def parse(source):
        if source == DEEP:
            raise RecursionError("maximum recursion depth exceeded")
        return real_parse(source)

    monkeypatch.setattr(analysis, "parse_source", parse)
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "deep.c").write_bytes(DEEP)
    (proj / "smelly.c").write_bytes(SMELLY)
    code, out, err = run_cli(capsys, "analyze", str(proj), "--jobs", jobs)
    assert code == 1
    doc = json.loads(out)
    assert doc["stats"] == {"double-free": 1}
    assert doc["files_analyzed"] == 1
    assert doc["files_skipped"] == 1
    assert "deep.c" in err and "RecursionError" in err
    assert err == f"warning: cannot analyze {proj / 'deep.c'}: RecursionError: maximum recursion depth exceeded\n"


def test_jobs_parses_every_file_on_the_calling_thread_in_path_order(tmp_path, capsys, monkeypatch):
    real_parse = analysis.parse_source
    seen = []

    def parse(source):
        seen.append((threading.get_ident(), source))
        return real_parse(source)

    monkeypatch.setattr(analysis, "parse_source", parse)
    proj = tmp_path / "proj"
    (proj / "sub").mkdir(parents=True)
    names = ["b.c", "a.c", "sub/c.c", "a.h", "z.cc", "m.c"]
    for i, name in enumerate(names):
        (proj / name).write_bytes(b"int f%d(void) { return 0; }\n" % i)
    run_cli(capsys, "analyze", str(proj), "--jobs", "8")
    assert seen == [
        (threading.get_ident(), (proj / name).read_bytes()) for name in sorted(names)
    ]


def test_importing_the_cli_starts_no_executor():
    code = "import sys, wasmsmell.cli; print('concurrent.futures' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


FRONTEND = {"lexer", "cparser", "cfg", "engine", "checkers", "analysis"}


def loaded_modules(code: str) -> set[str]:
    """The wasmsmell submodules a fresh interpreter holds after running code."""
    code += "\nimport sys; print(' '.join(m for m in sys.modules if m.startswith('wasmsmell.')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return {m.removeprefix("wasmsmell.") for m in out.stdout.split()}


def test_importing_the_package_or_the_cli_loads_no_layer():
    assert loaded_modules("import wasmsmell") == set()
    assert loaded_modules("import wasmsmell.cli") == {"cli", "report"}
    assert loaded_modules("from wasmsmell import is_relevant") == {"relevance"}


def test_each_subcommand_loads_only_its_own_layer(tmp_path):
    (tmp_path / "a.c").write_bytes(SMELLY)
    (tmp_path / "r.md").write_text("A webassembly port of a small game engine.\n")
    out = str(tmp_path / "out")

    def run(*argv):
        return loaded_modules(f"from wasmsmell.cli import main; main({list(argv)!r})")

    report = str(tmp_path / "report.json")
    analyze = run("analyze", str(tmp_path / "a.c"), "--out", report)
    assert analyze & {"dataset", "wasmdetect", "relevance"} == set()
    assert FRONTEND <= analyze
    assert run("detect-wasm", str(tmp_path), "--out", out) == {
        "cli", "report", "wasmdetect", "preprocess", "lexer"}
    assert run("rank-readme", str(tmp_path / "r.md"), "--out", out) == {"cli", "report", "relevance"}
    assert run("collect", str(tmp_path), "--dest", str(tmp_path / "ds"), "--no-convert",
               "--out", out) == {"cli", "report", "dataset"}
    assert run("stats", report, "--out", out) == {"cli", "report"}
    assert json.loads((tmp_path / "out").read_text())["total_projects"] == 1


def non_utf8_dir(parent: Path, name: bytes) -> Path:
    """Make a directory whose name is not UTF-8, or skip where the file system refuses it."""
    path = parent / os.fsdecode(name)
    try:
        path.mkdir()
    except (OSError, UnicodeEncodeError) as err:
        pytest.skip(f"file system refuses the name {name!r}: {err}")
    return path


def test_analyze_reports_a_non_utf8_file_name_escaped(tmp_path, capsys):
    proj = non_utf8_dir(tmp_path, b"p\xff")
    (proj / os.fsdecode(b"\xff.c")).write_bytes(SMELLY)
    (proj / "\u00e9.c").write_bytes(SMELLY)
    code, out, _ = run_cli(capsys, "analyze", str(proj))
    assert code == 1
    doc = json.loads(out)
    assert doc["project"] == "p\\xff"
    assert [f["file"] for f in doc["findings"]] == ["\\xff.c", "\u00e9.c"]
    code, out, _ = run_cli(capsys, "analyze", str(proj), "--format", "text")
    assert code == 1
    assert out.startswith("\\xff.c:2:")


def test_collect_records_a_non_utf8_file_name_escaped(tmp_path, capsys):
    tree = non_utf8_dir(tmp_path, b"t\xff")
    (tree / os.fsdecode(b"\xff.wasm")).write_bytes(b"\0asm1")
    (tree / "\u00e9.wasm").write_bytes(b"\0asm1")
    dest = tmp_path / "ds"
    code, out, _ = run_cli(capsys, "collect", str(tree), "--dest", str(dest))
    assert code == 0
    assert out.encode() == (dest / "index.json").read_bytes()
    [entry] = json.loads(out)["entries"]
    assert entry["origins"] == [
        {"repo": "t\\xff", "path": "\\xff.wasm"},
        {"repo": "t\\xff", "path": "\u00e9.wasm"},
    ]
    assert sorted(p.name for p in dest.iterdir()) == sorted(["index.json", entry["hash"] + ".wasm"])


def test_detect_wasm_reports_a_non_utf8_file_name_escaped(tmp_path, capsys):
    repo = non_utf8_dir(tmp_path, b"r\xff")
    (repo / os.fsdecode(b"\xff.c")).write_bytes(b"#include <emscripten.h>\n")
    code, out, _ = run_cli(capsys, "detect-wasm", str(repo))
    assert code == 0
    hits = json.loads(out)["wasm_target"]["h2_headers"]
    assert hits == [{"file": "\\xff.c", "line": 1, "text": "emscripten.h"}]


def test_build_reports_a_non_utf8_directory_name_escaped(tmp_path, capsys):
    (non_utf8_dir(tmp_path, b"\xffdir") / "Makefile").write_text("all:\n")
    code, out, _ = run_cli(capsys, "build", str(tmp_path), "--make-wrapper", "missing-wrapper-tool")
    assert code == 0
    (entry,) = json.loads(out)["directories"]
    assert entry["dir"] == "\\xffdir"


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["analyze", "detect-wasm", "rank-readme", "collect", "build", "stats"])
def test_unwritable_out_is_a_usage_error(command, tmp_path, capsys):
    (tmp_path / "a.c").write_bytes(SMELLY)
    (tmp_path / "r.md").write_text("wasm modules and wasm tools\n")
    report = tmp_path / "report.json"
    assert run_cli(capsys, "analyze", str(tmp_path / "a.c"), "--out", str(report))[0] == 1
    argv = {
        "analyze": [str(tmp_path / "a.c")],
        "detect-wasm": [str(tmp_path)],
        "rank-readme": [str(tmp_path / "r.md")],
        "collect": [str(tmp_path), "--dest", str(tmp_path / "ds")],
        "build": [str(tmp_path)],
        "stats": [str(report)],
    }[command]
    code, out, err = run_cli(capsys, command, *argv, "--out", str(tmp_path / "missing" / "x"))
    assert code == 2
    assert out == ""
    assert one_error_line(err), err


def make_chain(root: Path, name: str, depth: int, files: dict[str, bytes]):
    """Make root/name/name/... `depth` levels deep, with `files` in the last
    one, by descending one directory descriptor at a time: no path that
    long is ever handed to the kernel."""
    root.mkdir()
    fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        for _ in range(depth):
            os.mkdir(name, dir_fd=fd)
            sub = os.open(name, os.O_RDONLY | os.O_DIRECTORY, dir_fd=fd)
            os.close(fd)
            fd = sub
        for file, data in files.items():
            out = os.open(file, os.O_WRONLY | os.O_CREAT, 0o644, dir_fd=fd)
            os.write(out, data)
            os.close(out)
    finally:
        os.close(fd)


def remove_chain(root: Path, name: str):
    """Remove the chain under root: each level's files go, its one
    subdirectory moves up into root, and the emptied level is removed."""
    fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        while name in os.listdir(fd):
            sub = os.open(name, os.O_RDONLY | os.O_DIRECTORY, dir_fd=fd)
            try:
                for entry in os.listdir(sub):
                    if entry == name:
                        os.rename(name, ".next", src_dir_fd=sub, dst_dir_fd=fd)
                    else:
                        os.unlink(entry, dir_fd=sub)
            finally:
                os.close(sub)
            os.rmdir(name, dir_fd=fd)
            if ".next" in os.listdir(fd):
                os.rename(".next", name, src_dir_fd=fd, dst_dir_fd=fd)
    finally:
        os.close(fd)


@pytest.fixture
def chain(tmp_path):
    made = []

    def build(dirname: str, name: str, depth: int, files=None) -> Path:
        root = tmp_path / dirname
        make_chain(root, name, depth, files or {})
        made.append((root, name))
        return root

    yield build
    for root, name in made:  # shutil.rmtree recurses once per level
        remove_chain(root, name)


def walk_commands(root: Path, tmp_path: Path):
    """Each walking subcommand's argv over root, in a fresh dataset for collect."""
    return {
        "analyze": ["analyze", str(root)],
        "detect-wasm": ["detect-wasm", str(root)],
        "collect": ["collect", str(root), "--dest", str(tmp_path / f"ds-{root.name}"), "--no-convert"],
        "build": ["build", str(root), "--make-wrapper", "missing-wrapper-tool"],
    }


def test_a_tree_1200_directories_deep_is_walked_to_the_bottom(chain, tmp_path, capsys):
    files = {"a.c": SMELLY, "Makefile": b"all:\n\temcc a.c\n", "m.wasm": b"\0asm1"}
    root = chain("deep", "d", 1200, files)
    bottom = "d/" * 1200
    runs = {cmd: run_cli(capsys, *argv) for cmd, argv in walk_commands(root, tmp_path).items()}
    assert {cmd: (code, err) for cmd, (code, _, err) in runs.items()} == {
        "analyze": (1, ""), "detect-wasm": (0, ""), "collect": (0, ""), "build": (0, "")}
    assert [f["file"] for f in json.loads(runs["analyze"][1])["findings"]] == [bottom + "a.c"]
    assert json.loads(runs["detect-wasm"][1])["wasm_target"]["h1_build_scripts"][0]["file"] == bottom + "Makefile"
    assert json.loads(runs["collect"][1])["entries"][0]["origins"] == [{"repo": "deep", "path": bottom + "m.wasm"}]
    assert [d["dir"] for d in json.loads(runs["build"][1])["directories"]] == [bottom.rstrip("/")]


def test_a_tree_past_path_max_is_a_warning(chain, tmp_path, capsys):
    root = chain("long", "n" * 200, 22)
    assert len(str(root)) + 22 * 201 > os.pathconf(root, "PC_PATH_MAX")
    (root / "top.c").write_bytes(CLEAN)
    for cmd, argv in walk_commands(root, tmp_path).items():
        code, out, err = run_cli(capsys, *argv)
        assert code == (1 if cmd == "detect-wasm" else 0), (cmd, err)
        assert "warning: cannot read" in err and "error" not in err, (cmd, err)
        if cmd == "analyze":
            assert json.loads(out)["files_analyzed"] == 1


@pytest.mark.parametrize("command, flag", [
    ("collect", "--wat2wasm"), ("build", "--cmake-wrapper"), ("build", "--make-wrapper"),
])
def test_an_unreadable_command_template_is_a_usage_error(command, flag, tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    for name in ("m.wat", "CMakeLists.txt", "Makefile"):
        (tree / name).write_text("")
    argv = [command, str(tree), flag, 'cp {in} "{out}']
    if command == "collect":
        argv += ["--dest", str(tmp_path / "ds")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "No closing quotation" in err
    assert not (tmp_path / "ds").exists()


def test_build_runs_no_step_when_a_wrapper_cannot_be_read(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "CMakeLists.txt").write_text("")
    (tree / "Makefile").write_text("")
    marker = tmp_path / "marker"
    code, _, err = run_cli(
        capsys, "build", str(tree), "--cmake-wrapper", f"touch {marker}", "--make-wrapper", 'make "x',
    )
    assert code == 2 and one_error_line(err)
    assert not marker.exists()


def test_collect_with_a_blank_converter_skips_the_wat(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "m.wat").write_text("(module)")
    code, out, err = run_cli(capsys, "collect", str(tree), "--dest", str(tmp_path / "ds"), "--wat2wasm", "   ")
    assert code == 0
    assert json.loads(out)["wat"] == {"converted": 0, "unconverted": []}
