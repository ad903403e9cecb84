import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasmsmell import analyze_source
from wasmsmell.checkers import all_checker_ids
from wasmsmell.cparser import AstNode, parse_source
from wasmsmell.lexer import Span


def functions(unit):
    return [n for n in unit.children if n.kind == "FunctionDef"]


def find_kind(unit, kind):
    return [n for n in unit.walk() if n.kind == kind]


def test_simple_function():
    res = parse_source("int main(void) { return 0; }")
    assert res.unit.kind == "TranslationUnit"
    fns = functions(res.unit)
    assert len(fns) == 1
    assert fns[0].name == "main"


def test_decl_info_pointer():
    res = parse_source('int f(void) { FILE *f = fopen("file.txt", "w+"); return 0; }')
    decls = find_kind(res.unit, "Decl")
    d = decls[0].decl
    assert d.name == "f"
    assert d.base == "FILE"
    assert d.ptr_depth == 1
    assert d.has_init


def test_decl_info_int_from_call():
    res = parse_source("int g(void) { int f = open(0); return f; }")
    d = find_kind(res.unit, "Decl")[0].decl
    assert (d.base, d.ptr_depth, d.has_init) == ("int", 0, True)


def test_decl_info_array():
    res = parse_source('int h(void) { char string2[] = "a/b"; return 0; }')
    d = find_kind(res.unit, "Decl")[0].decl
    assert d.base == "char"
    assert d.is_array


def test_null_literal_special_cased():
    res = parse_source("int f(char *p) { if (p == NULL) return 1; return 0; }")
    lits = [n for n in res.unit.walk() if n.kind == "Literal" and n.literal_kind == "null"]
    assert len(lits) == 1


def test_switch_lowered_to_if_chain():
    res = parse_source(
        "int f(int x) { switch (x) { case 1: return 1; case 2: return 2; default: return 0; } }"
    )
    assert find_kind(res.unit, "If")
    assert not find_kind(res.unit, "Switch")


def test_goto_becomes_skipped_with_diagnostic():
    res = parse_source("int f(void) { goto out; out: return 0; }")
    assert res.unit.kind == "TranslationUnit"
    assert any("goto" in d.message for d in res.diagnostics)


def test_garbage_between_functions_recovers():
    src = "int a(void) { return 1; }\n@@@ ??? $$$\nint b(void) { return 2; }\n"
    res = parse_source(src)
    names = [f.name for f in functions(res.unit)]
    assert names == ["a", "b"]
    assert find_kind(res.unit, "SkippedRegion")
    assert res.diagnostics


def test_unbalanced_braces_do_not_crash():
    res = parse_source("int f(void) { if (x) { return 1; ")
    assert res.unit.kind == "TranslationUnit"


def test_includes_surface_through_parse():
    res = parse_source('#include <emscripten.h>\nint main(void) { return 0; }')
    assert [i.target for i in res.includes] == ["emscripten.h"]


def test_spans_cover_source():
    src = "int f(void) { int x = 1; return x; }"
    res = parse_source(src)
    for node in res.unit.walk():
        if node.span is None:
            continue
        assert 0 <= node.span.offset <= len(src)
        assert node.span.offset + node.span.length <= len(src)


def test_walk_is_recursive_preorder():
    def recursive(node):
        yield node
        for child in node.children:
            yield from recursive(child)

    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*/*.c"))
    assert len(fixtures) > 20
    for path in fixtures:
        unit = parse_source(path.read_bytes()).unit
        assert [id(n) for n in unit.walk()] == [id(n) for n in recursive(unit)], path.name


def test_walk_long_file_scope_sum():
    # The parser turns a chain this long into a SkippedRegion, so the
    # tree of `int x = 1+1+...+1;` is built by hand.
    span = Span(0, 1, 1, 1)
    expr = AstNode("Literal", span, value="1")
    for _ in range(2999):
        expr = AstNode("Binary", span, [expr, AstNode("Literal", span, value="1")], value="+")
    decl = AstNode("Decl", span, [expr], name="x")
    unit = AstNode("TranslationUnit", span, [decl])
    assert sum(n.kind == "Literal" for n in unit.walk()) == 3000


def test_deeply_nested_parens_hit_depth_limit_not_recursion():
    res = parse_source("int f(void) { x = " + "(" * 500 + "1" + ")" * 500 + "; }")
    assert res.unit.kind == "TranslationUnit"


def test_deeply_nested_blocks_hit_depth_limit_not_recursion():
    res = parse_source("int f(void) { " + "{" * 600 + "}" * 600 + " }")
    assert res.unit.kind == "TranslationUnit"


def _sum(n):
    return " + ".join(["a"] * n)


# Inputs that once raised RecursionError in analyze_source: long chains of a
# left-associative operator, and a switch desugared into a long else-if chain.
CRASH_INPUTS = {
    "sum": "int f(int a) { return " + _sum(3000) + "; }",
    "arrow": "int f(struct s *p) { return p" + "->n" * 3000 + "; }",
    "index": "int f(int *p) { return p" + "[0]" * 3000 + "; }",
    "and": "int f(int a) { if (" + " && ".join(["a"] * 3000) + ") return 1; return 0; }",
    "comma": "int f(int a) { return (" + ", ".join(["a"] * 3000) + "); }",
    "switch": "int f(int a) { switch (a) { "
    + "".join(f"case {i}: a = {i}; break; " for i in range(1000))
    + "} return a; }",
}


@pytest.mark.parametrize("name", sorted(CRASH_INPUTS))
def test_analyze_source_total_on_long_chains(name):
    source = CRASH_INPUTS[name].encode()
    result = analyze_source(source, "x.c", all_checker_ids())
    skipped = find_kind(parse_source(source).unit, "SkippedRegion")
    if name == "switch":
        # one path per case, and one that matches none
        assert result.paths_explored == 1001 and skipped == []
    else:
        assert [n.value for n in skipped] == ["expression too deeply nested"]


def test_longest_chain_that_parses_is_analyzed_deep_in_the_stack():
    # The longest sum a `return` keeps, under 149 nested ifs, analyzed from
    # 120 frames down: every recursive stage stays inside the stack.
    source = ("int f(int a) { " + "if (a) " * 149 + "return " + _sum(137) + "; return 0; }").encode()
    assert not find_kind(parse_source(source).unit, "SkippedRegion")
    assert find_kind(parse_source(source.replace(b"a;", b"a + a;")).unit, "SkippedRegion")

    def nested(depth):
        return nested(depth - 1) if depth else analyze_source(source, "x.c", all_checker_ids())

    assert nested(120).paths_explored == 150


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=1024))
def test_parse_is_total_on_bytes(data):
    res = parse_source(data)
    assert res.unit.kind == "TranslationUnit"


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.printable, max_size=400))
def test_parse_is_total_on_text(text):
    res = parse_source(text)
    assert res.unit.kind == "TranslationUnit"


def test_multi_declarator_is_a_decl_list():
    res = parse_source("int f(void) { char *a, *b = 0; return 0; }")
    (lst,) = find_kind(res.unit, "DeclList")
    assert [(d.kind, d.name) for d in lst.children] == [("Decl", "a"), ("Decl", "b")]
    assert find_kind(res.unit, "Block") == [functions(res.unit)[0].children[-1]]
