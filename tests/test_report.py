import json
import os

import pytest

from wasmsmell.report import (
    Finding,
    ProjectReport,
    ReportError,
    canonical_json,
    compute_corpus_stats,
    merge_findings,
    render,
    report_path,
    tree_files,
)


def mk(checker, file, line, col=1, msg="m", cwe=None):
    return Finding(checker, cwe, file, line, col, msg)


def test_merge_sorts_and_dedups():
    f1 = mk("double-free", "b.c", 4)
    f2 = mk("access-env", "a.c", 9)
    dup = mk("double-free", "b.c", 4)
    report = merge_findings([[f1], [f2, dup]], project="p")
    assert [(f.file, f.line, f.checker) for f in report.findings] == [
        ("a.c", 9, "access-env"),
        ("b.c", 4, "double-free"),
    ]
    assert report.stats == {"access-env": 1, "double-free": 1}


def test_merge_empty():
    report = merge_findings([], project="p")
    assert report.findings == [] and report.stats == {}


def test_merge_commutative_up_to_sort():
    f1 = mk("double-free", "b.c", 4)
    f2 = mk("access-env", "a.c", 9)
    r1 = merge_findings([[f1], [f2]], project="p")
    r2 = merge_findings([[f2], [f1]], project="p")
    assert render(r1) == render(r2)


def test_canonical_json_properties():
    data = canonical_json({"b": 1, "a": {"z": 2, "y": 3}})
    text = data.decode("utf-8")
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text.index('"a"') < text.index('"b"')
    assert canonical_json(json.loads(text)) == data


def test_render_roundtrip_fixed_point():
    report = merge_findings([[mk("access-env", "src/a.c", 3, 14, "call to getenv")]], "p")
    report.files_analyzed = 1
    blob = render(report)
    again = render(ProjectReport.from_dict(json.loads(blob)))
    assert again == blob


def test_render_text_format():
    report = merge_findings([[mk("access-env", "src/a.c", 3, 14, "call to getenv")]], "p")
    text = render(report, "text").decode()
    assert "src/a.c:3:14: [access-env] call to getenv" in text


def test_schema_version_checked():
    with pytest.raises(ReportError):
        ProjectReport.from_dict({"schema_version": 99, "project": "p"})


@pytest.mark.parametrize("doc", [[], "report", None, 1])
def test_report_that_is_not_an_object_is_a_report_error(doc):
    with pytest.raises(ReportError, match="not a JSON object"):
        ProjectReport.from_dict(doc)


def test_report_round_trips_with_optional_fields_absent():
    report = ProjectReport.from_dict({"schema_version": 1, "project": "p"})
    assert report == ProjectReport(project="p")
    f = mk("double-free", "a.c", 2, 3, cwe=415)
    assert Finding.from_dict(f.to_dict()) == f


def test_corpus_stats_hand_counted():
    p1 = merge_findings(
        [[mk("access-env", "a.c", 1), mk("access-env", "a.c", 2),
          mk("error-without-action", "a.c", 3)]],
        project="P1",
    )
    p2 = merge_findings([[mk("error-without-action", "b.c", 1)]], project="P2")
    stats = compute_corpus_stats([p1, p2])
    doc = stats.to_dict()
    assert doc["checkers"]["access-env"]["occurences"] == 2
    assert doc["checkers"]["access-env"]["repositories_affected"] == 1
    assert doc["checkers"]["error-without-action"]["occurences"] == 2
    assert doc["checkers"]["error-without-action"]["repositories_affected"] == 2
    assert doc["projects_with_any_smell"] == {"count": 2, "fraction": 1.0}
    assert doc["total_projects"] == 2


def test_corpus_stats_empty():
    doc = compute_corpus_stats([]).to_dict()
    assert doc["checkers"] == {}
    assert doc["total_projects"] == 0
    assert doc["projects_with_any_smell"]["count"] == 0


def test_corpus_stats_singleton_matches_project_stats():
    p = merge_findings([[mk("double-free", "a.c", 1), mk("double-free", "a.c", 2)]], "P")
    doc = compute_corpus_stats([p]).to_dict()
    assert doc["checkers"]["double-free"]["occurences"] == p.stats["double-free"]
    assert doc["checkers"]["double-free"]["repositories_affected"] == 1


def test_duplicate_project_ids_rejected():
    p = merge_findings([], project="same")
    q = merge_findings([], project="same")
    with pytest.raises(ReportError):
        compute_corpus_stats([p, q])


def test_stats_text_columns_present():
    p = merge_findings([[mk("access-env", "a.c", 1)]], "P")
    text = render(compute_corpus_stats([p]), "text").decode()
    assert "Occurences" in text
    assert "Repositories Affected" in text


def test_report_path_escapes_only_bytes_that_are_not_utf8():
    assert report_path("sub/\u00e9.c") == "sub/\u00e9.c"
    assert report_path(os.fsdecode(b"sub/\xff\xc3.c")) == "sub/\\xff\\xc3.c"
    assert report_path(b"\xe2\x82\xac\xff") == "\u20ac\\xff"


def test_tree_files_lists_what_rglob_lists(tmp_path, capsys):
    root = tmp_path / "root"
    (root / "sub" / ".hidden").mkdir(parents=True)
    (root / "sub" / ".hidden" / "x.c").write_text("")
    (root / "sub" / "file.txt").write_text("")
    (root / ".dotfile").write_text("")
    (root / "to_file").symlink_to(root / "sub" / "file.txt")
    (root / "to_dir").symlink_to(root / "sub")
    (root / "dangling").symlink_to(root / "nowhere")
    (root / "loop").symlink_to("loop")
    os.mkfifo(root / "fifo")
    try:
        (root / os.fsdecode(b"\xff.c")).write_text("")
    except (OSError, UnicodeEncodeError) as err:
        pytest.skip(f"file system refuses a name that is not UTF-8: {err}")
    reference = sorted(p for p in root.rglob("*") if p.is_file())
    assert root / "to_file" in reference
    assert root / "to_dir" / "file.txt" not in reference
    capsys.readouterr()

    assert tree_files(root) == reference
    err = capsys.readouterr().err
    assert err.count("warning: ") == 1
    assert err.startswith(f"warning: cannot read {root / 'loop'}: ")
