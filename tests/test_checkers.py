import pytest

from conftest import GOLDEN_MATRIX, OPTIONAL_MATRIX, NEGATIVE, SMELLS, analyze_fixture, finding_cells
from wasmsmell import analyze_source
from wasmsmell.checkers import (
    CHECKERS_BY_ID,
    UnknownCheckerError,
    all_checker_ids,
    default_checker_ids,
    parse_format,
    validate_checker_ids,
)


def test_checker_registry_vocabulary():
    assert set(all_checker_ids()) == {
        "access-env",
        "wide-string",
        "bad-fputs-comparison",
        "error-without-action",
        "improper-resource-shutdown",
        "double-free",
        "double-fclose",
        "uninitialized-variable",
        "pointer-subtraction",
        "format-arg-count",
        "format-arg-type",
        "alloca-free",
        "offset-free",
    }
    assert set(default_checker_ids()) == set(all_checker_ids()) - {"alloca-free", "offset-free"}


def test_checker_cwe_assignments():
    cwe = {cid: d.cwe for cid, d in CHECKERS_BY_ID.items()}
    assert cwe["double-free"] == 415
    assert cwe["error-without-action"] == 390
    assert cwe["double-fclose"] == 675
    assert cwe["uninitialized-variable"] == 457
    assert cwe["access-env"] is None
    assert cwe["bad-fputs-comparison"] == 235
    assert cwe["improper-resource-shutdown"] == 404
    assert cwe["wide-string"] is None
    assert cwe["format-arg-type"] == 688
    assert cwe["alloca-free"] == 590
    assert cwe["format-arg-count"] == 685
    assert cwe["offset-free"] == 761
    assert cwe["pointer-subtraction"] == 469


def test_validate_rejects_unknown_ids():
    with pytest.raises(UnknownCheckerError):
        validate_checker_ids(["double-free", "nope"])
    assert validate_checker_ids(["double-free"]) == ["double-free"]


@pytest.mark.parametrize("name", sorted(GOLDEN_MATRIX))
def test_golden_fixture(name):
    result = analyze_fixture(SMELLS / name)
    assert finding_cells(result) == GOLDEN_MATRIX[name]


@pytest.mark.parametrize("name", sorted(OPTIONAL_MATRIX))
def test_optional_fixture_enabled(name):
    result = analyze_fixture(SMELLS / name, checker_ids=all_checker_ids())
    assert finding_cells(result) == OPTIONAL_MATRIX[name]


@pytest.mark.parametrize("name", sorted(OPTIONAL_MATRIX))
def test_optional_fixture_silent_by_default(name):
    result = analyze_fixture(SMELLS / name)
    assert result.findings == []


def test_findings_carry_registry_cwe():
    findings = []
    for name in sorted(GOLDEN_MATRIX) + sorted(OPTIONAL_MATRIX):
        findings += analyze_fixture(SMELLS / name, checker_ids=all_checker_ids()).findings
    assert {f.checker for f in findings} == set(all_checker_ids())
    for f in findings:
        assert f.cwe == CHECKERS_BY_ID[f.checker].cwe, f


@pytest.mark.parametrize("path", sorted(NEGATIVE.glob("*.c")), ids=lambda p: p.name)
def test_negative_fixture_clean_under_all_checkers(path):
    result = analyze_fixture(path, checker_ids=all_checker_ids())
    assert result.findings == []


def test_disabling_one_checker_removes_only_its_findings():
    src = (SMELLS / "c_double_fclose.c").read_bytes()
    full = analyze_source(src, "c.c")
    without = analyze_source(
        src, "c.c", checker_ids=[c for c in default_checker_ids() if c != "double-fclose"]
    )
    assert finding_cells(full) - finding_cells(without) == {("double-fclose", 7)}


def test_findings_track_content_on_whitespace_shift():
    src = (SMELLS / "a_double_free.c").read_text()
    shifted = "\n\n" + src.replace("    free(data);", "        free(data);")
    result = analyze_source(shifted.encode(), "a.c")
    assert {(f.checker, f.line) for f in result.findings} == {("double-free", 9)}


def test_eof_comparison_not_flagged():
    src = b"""
    int main(void) {
        if (fputs("string", stdout) == EOF)
            printf("fputs failed!\\n");
        return 0;
    }
    """
    assert analyze_source(src, "t.c").findings == []


def test_fputs_comparison_through_zero_binding():
    src = b"""
    int main(void) {
        int r = fputs("s", stdout);
        int z = 0;
        if (r == z)
            printf("failed\\n");
        return 0;
    }
    """
    result = analyze_source(src, "t.c")
    assert {f.checker for f in result.findings} == {"bad-fputs-comparison"}


def test_getenv_flagged_even_when_null_checked():
    src = b"""
    int main(void) {
        char *home = getenv("HOME");
        if (home != NULL) {
            printf("%s", home);
        }
        return 0;
    }
    """
    result = analyze_source(src, "t.c")
    assert {f.checker for f in result.findings} == {"access-env"}


def test_non_literal_format_is_skipped_and_counted():
    src = b"""
    int main(void) {
        char *fmt = "%d";
        printf(fmt, "oops");
        return 0;
    }
    """
    result = analyze_source(src, "t.c")
    assert result.findings == []
    assert result.skipped_sites == 1


def test_star_width_consumes_int_argument():
    ok = b'int main(void) { printf("%*d", 5, 7); return 0; }'
    bad = b'int main(void) { printf("%*d", 5); return 0; }'
    assert analyze_source(ok, "t.c").findings == []
    assert {f.checker for f in analyze_source(bad, "t.c").findings} == {"format-arg-count"}


def test_percent_escape_consumes_nothing():
    src = b'int main(void) { printf("100%%\\n"); return 0; }'
    assert analyze_source(src, "t.c").findings == []


def test_parse_format_grammar():
    assert parse_format('"%d %s"') == ["int", "str"]
    assert parse_format('"%%"') == []
    assert parse_format('"%ld %u %x"') == ["int", "int", "int"]
    assert parse_format('"%f %e %g"') == ["double", "double", "double"]
    assert parse_format('"%ls"') == ["wstr"]
    assert parse_format('"%p %c"') == ["ptr", "int"]
    assert parse_format('"%*.*f"') == ["int", "int", "double"]


def test_fprintf_and_snprintf_format_positions():
    bad = b'int main(void) { fprintf(stderr, "%s", 5); return 0; }'
    assert {f.checker for f in analyze_source(bad, "t.c").findings} == {"format-arg-type"}
    ok = b'int main(void) { char b[9]; snprintf(b, 9, "%d", 5); return 0; }'
    assert analyze_source(ok, "t.c").findings == []


def test_use_before_declaration_is_not_typed_by_it():
    # `n` is not in scope at the call, so its later `int` type does not apply
    src = b'int main(void) { printf("%s", n); int n = 0; return n; }'
    assert analyze_source(src, "t.c", checker_ids=["format-arg-type"]).findings == []


def test_inner_declaration_shadows_from_its_declaration_to_block_end():
    # outer `char *s` before the inner `int s`, then the inner one, then outer again
    src = (
        b'int main(void) { char *s; { printf("%d", s); int s = 0; printf("%s", s); } '
        b'printf("%d", s); return 0; }'
    )
    result = analyze_source(src, "t.c", checker_ids=["format-arg-type"])
    cols = {i + 1 for i in range(len(src)) if src.startswith(b"s);", i)}
    assert len(cols) == 3
    assert {(f.checker, f.line, f.col) for f in result.findings} == {
        ("format-arg-type", 1, c) for c in cols
    }


def test_file_scope_long_sum_does_not_recurse():
    src = ("int x = " + "+".join(["1"] * 3000) + ";\n").encode()
    assert analyze_source(src, "t.c", checker_ids=all_checker_ids()).findings == []


def test_pointer_subtraction_needs_two_pointers():
    ok = b"int main(void) { int a = 5; int b = 3; int d = a - b; return d; }"
    assert analyze_source(ok, "t.c").findings == []


def test_parameters_are_typed_and_file_scope_names_are_not():
    params = b"int f(char *p, char *q) { return p - q; }"
    assert {f.checker for f in analyze_source(params, "t.c").findings} == {"pointer-subtraction"}
    file_scope = b'char *a = "x", *b = a - a;'
    assert analyze_source(file_scope, "t.c").findings == []


def test_multi_declarator_names_stay_in_scope_after_the_semicolon():
    # `char *a, *b;` declares both in the function body, not in a block of its own
    src = b'int f(void){ char *a, *b; printf("%d", a); return b - a; }'
    found = {f.checker for f in analyze_source(src, "t.c", checker_ids=all_checker_ids()).findings}
    assert {"format-arg-type", "pointer-subtraction"} <= found


def test_switch_body_is_one_scope():
    # A name declared in one arm is in scope in the arms after it, as in C,
    # and out of scope after the switch.
    in_arm = b'int f(int x){ switch(x){ case 1: x = 2; char *a = 0; case 2: printf("%d", a); } return 0; }'
    before = b'int f(int x){ char *a = 0; switch(x){ case 1: x = 2; case 2: printf("%d", a); } return 0; }'
    after = b'int f(int x){ switch(x){ case 1: x = 2; char *a = 0; } printf("%d", a); return 0; }'
    found = {
        name: [(f.checker, f.line, f.col) for f in analyze_source(src, "t.c", all_checker_ids()).findings]
        for name, src in [("in_arm", in_arm), ("before", before), ("after", after)]
    }
    assert found == {"in_arm": [("format-arg-type", 1, 75)], "before": [("format-arg-type", 1, 75)], "after": []}


SHADOWED_LIBRARY_CALLS = {
    "free": b"void release(void *q); int f(char *p){ void (*free)(void *) = release; free(p); free(p); return 0; }",
    "getenv": b'int f(void){ char *(*getenv)(const char *) = 0; getenv("X"); return 0; }',
    "printf": b'int f(void){ int (*printf)(const char *, ...) = 0; printf("%d %s"); return 0; }',
}


@pytest.mark.parametrize("name", sorted(SHADOWED_LIBRARY_CALLS))
def test_a_local_that_shadows_a_library_function_is_not_it(name):
    findings = analyze_source(SHADOWED_LIBRARY_CALLS[name], "t.c", all_checker_ids()).findings
    assert findings == []


SWITCH_SCRUTINEES = {
    "free": (b"int f(char *p){ switch (free(p), 0) { case 1: return 1; case 2: return 2; } return 0; }", []),
    "fclose": (
        b'int f(void){ FILE *fp = fopen("a","r"); switch (fclose(fp)) { case 1: return 1; case 2: return 2; } return 0; }',
        [("error-without-action", 1, 49)],
    ),
    "getenv": (
        b'int f(void){ switch (getenv("X")[0]) { case 1: return 1; case 2: return 2; } return 0; }',
        [("access-env", 1, 22)],
    ),
}


@pytest.mark.parametrize("name", sorted(SWITCH_SCRUTINEES))
def test_switch_scrutinee_is_evaluated_once(name):
    src, expected = SWITCH_SCRUTINEES[name]
    findings = analyze_source(src, "t.c", all_checker_ids()).findings
    assert [(f.checker, f.line, f.col) for f in findings] == expected


@pytest.mark.parametrize("storage", ["", "static ", "extern ", "register "])
def test_static_and_extern_locals_start_initialized(storage):
    # static storage starts zeroed (C11 6.7.9p10); extern storage is set elsewhere
    src = f"int f(void){{ {storage}char *p; return p[0]; }}"
    findings = analyze_source(src.encode(), "t.c", all_checker_ids()).findings
    expected = [] if storage in ("static ", "extern ") else [("uninitialized-variable", 1, src.index("p[0]") + 1)]
    assert [(f.checker, f.line, f.col) for f in findings] == expected


def test_declarator_after_a_tag_body_is_declared():
    # `d` is declared by the statement that also defines `struct opts`
    with_body = b"int f(void){ struct opts { int v; } d; return d.v; }"
    without = b"int f(void){ struct opts d; return d.v; }"
    found = [
        [(f.checker, f.message) for f in analyze_source(src, "t.c", all_checker_ids()).findings]
        for src in (with_body, without)
    ]
    assert found[0] == found[1] == [("uninitialized-variable", "variable 'd' may be read before it is initialized")]
