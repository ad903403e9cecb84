import hashlib
import json
import os
import tempfile

import pytest

from conftest import FIXTURES, SMELLS
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


# A 600-term sum inside a function: lowering it to a CFG recurses past
# Python's limit, so analyzing this one file raises.
DEEP = b"int f(void) { int x = " + b"+".join([b"1"] * 600) + b"; return x; }\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_analyze_crashing_file_is_skipped_not_fatal(tmp_path, capsys, jobs):
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
