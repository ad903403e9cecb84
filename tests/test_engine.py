import pytest

from wasmsmell import analyze_source
from wasmsmell.cfg import build_cfg
from wasmsmell.cparser import parse_source
from wasmsmell.engine import Budget, analyze_function
from wasmsmell.checkers import make_flow_checkers, default_checker_ids


def run(src: str, checker_ids=None, budget=None):
    ids = checker_ids if checker_ids is not None else default_checker_ids()
    unit = parse_source(src).unit
    fn = [n for n in unit.children if n.kind == "FunctionDef"][0]
    fg = build_cfg(fn)
    return analyze_function(fg, make_flow_checkers(ids), budget or Budget())


WHILE_LOOP = "int f(int c) { int s = 0; while (c) { s = s + 1; } return s; }"


@pytest.mark.parametrize("unroll,paths", [(0, 1), (1, 2), (2, 3), (3, 4)])
def test_single_loop_path_count(unroll, paths):
    _, report = run(WHILE_LOOP, budget=Budget(unroll=unroll))
    assert report.paths_explored == paths


def test_nested_branch_path_count():
    src = "int f(int a, int b) { if (a) { use(a); } if (b) { use(b); } return 0; }"
    _, report = run(src)
    assert report.paths_explored == 4


def test_budget_exhaustion_is_flagged():
    src = "int f(int a, int b) { if (a) { use(a); } if (b) { use(b); } return 0; }"
    _, report = run(src, budget=Budget(max_paths=2))
    assert report.paths_explored == 2
    assert report.exhausted


def test_findings_monotone_in_max_paths():
    src = """
    int f(int a, int b) {
        char *p = (char *)malloc(8);
        char *q = (char *)malloc(8);
        if (a) { free(p); }
        if (b) { free(q); free(q); }
        free(p);
        return 0;
    }
    """
    sets = []
    for k in (1, 8, 64):
        findings, _ = run(src, budget=Budget(max_paths=k))
        sets.append({f.dedup_key for f in findings})
    assert sets[0] <= sets[1] <= sets[2]


def test_infeasible_path_pruned():
    src = """
    int f(char *p) {
        if (p == NULL) {
            if (p != NULL) {
                free(p);
                free(p);
            }
        }
        return 0;
    }
    """
    findings, _ = run(src)
    assert findings == []


def test_null_refinement_suppresses_error_without_action():
    src = """
    int f(void) {
        FILE *h = fopen("a", "r");
        if (h != NULL) {
            fclose(h);
        }
        return 0;
    }
    """
    findings, _ = run(src)
    assert findings == []


def test_truthiness_check_also_refines():
    src = """
    int f(void) {
        FILE *h = fopen("a", "r");
        if (h) {
            fclose(h);
        }
        return 0;
    }
    """
    findings, _ = run(src)
    assert findings == []


def test_double_free_found_inside_loop():
    src = """
    int f(int n) {
        char *p = (char *)malloc(8);
        while (n) {
            free(p);
            n = n - 1;
        }
        return 0;
    }
    """
    findings, _ = run(src, budget=Budget(unroll=2))
    assert {f.checker for f in findings} == {"double-free"}


def test_findings_deterministic_across_runs():
    src = """
    int f(int a) {
        char *p = (char *)malloc(8);
        if (a) { free(p); }
        free(p);
        return 0;
    }
    """
    first, _ = run(src)
    second, _ = run(src)
    assert [f.dedup_key for f in first] == [f.dedup_key for f in second]
    assert first  # the a-true path frees twice


def test_uninit_on_one_path_only():
    src = """
    int f(int c, char *p) {
        char *d;
        if (c) { d = p; }
        use(d);
        return 0;
    }
    """
    findings, _ = run(src)
    assert {f.checker for f in findings} == {"uninitialized-variable"}


def test_finding_on_every_path_reported_once():
    src = """
    int f(int a, int b) {
        char *p = (char *)malloc(8);
        if (a) { use(a); }
        if (b) { use(b); }
        free(p);
        free(p);
        return 0;
    }
    """
    findings, report = run(src)
    assert report.paths_explored == 4
    assert [(f.checker, f.line) for f in findings] == [("double-free", 7)]


def test_analyze_source_stamps_relative_path():
    res = analyze_source(b"int f(void){char* p=(char*)malloc(4);free(p);free(p);return 0;}", "sub/x.c")
    assert res.findings
    assert all(f.file == "sub/x.c" for f in res.findings)
