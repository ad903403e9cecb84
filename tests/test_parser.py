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
    # 120 frames down: every recursive stage stays inside the stack. Its 149
    # operators take one depth unit each, and its last operand the 150th.
    source = ("int f(int a) { " + "if (a) " * 149 + "return " + _sum(150) + "; return 0; }").encode()
    assert not find_kind(parse_source(source).unit, "SkippedRegion")
    assert find_kind(parse_source(source.replace(b"a;", b"a + a;")).unit, "SkippedRegion")

    def nested(depth):
        return nested(depth - 1) if depth else analyze_source(source, "x.c", all_checker_ids())

    assert nested(120).paths_explored == 150


# The longest expression of each shape that a `return` keeps: one depth
# unit per prefix operator, cast and chained operator, four per parenthesis
# (expression, unary, postfix and primary frames) and five per call.
DEPTH_BOUNDARIES = {
    "sum": (lambda n: _sum(n + 1), 149),
    "assign": (lambda n: " = ".join(["a"] * (n + 1)), 149),
    "conditional": (lambda n: "a ? a : " * n + "a", 148),
    "arrow": (lambda n: "p" + "->n" * n, 148),
    "index": (lambda n: "p" + "[0]" * n, 146),
    "prefix": (lambda n: "!" * n + "a", 149),
    "cast": (lambda n: "(char *) " * n + "a", 149),
    "paren": (lambda n: "(" * n + "a" + ")" * n, 37),
    "call": (lambda n: "g(" * n + "a" + ")" * n, 29),
}


@pytest.mark.parametrize("shape", sorted(DEPTH_BOUNDARIES))
def test_expression_depth_boundary(shape):
    make, longest = DEPTH_BOUNDARIES[shape]

    def skipped(n):
        unit = parse_source("int f(int a) { return " + make(n) + "; }").unit
        return [region.value for region in find_kind(unit, "SkippedRegion")]

    assert skipped(longest) == []
    assert skipped(longest + 1) == ["expression too deeply nested"]


def test_nested_parentheses_and_calls_parse():
    # Each used to cost one depth unit per precedence level, so 9 levels
    # of either were skipped without a trace.
    res = parse_source("int f(int a) { return (((((((((a))))))))); }")
    (ret,) = find_kind(res.unit, "Return")
    assert [(n.kind, n.name) for n in ret.children] == [("Ident", "a")]
    assert res.diagnostics == []
    res = parse_source("int f(int a) { return " + "g(" * 20 + "a" + ")" * 20 + "; }")
    assert len(find_kind(res.unit, "Call")) == 20
    assert res.diagnostics == []


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


@pytest.mark.parametrize("src, name, ptr, is_array, is_param", [
    ("int f(void) { int (*fp)(int); return 0; }", "fp", 1, False, False),
    ("int (*fp)(int);", "fp", 1, False, False),
    ("int f(int (*cb)(int), int x) { return x; }", "cb", 1, False, True),
    ("int f(void) { char *(*tab[4])(void); return 0; }", "tab", 1, True, False),
    ("int f(void) { int (*row)[8]; return 0; }", "row", 1, False, False),
    ("int f(void) { int (*(*fpp))(int); return 0; }", "fpp", 1, False, False),
    ("int (*(*fpp))(int);", "fpp", 1, False, False),
    ("int f(int cb(int)) { return cb(0); }", "cb", 0, False, True),
    # a local prototype declares no variable
    ("int f(void) { int g(int); return g(1); }", "g", None, None, None),
    # declarators after a struct/union body
    ("static struct opts { int v; } defaults = { 1 };", "defaults", 0, False, False),
    ("struct opts { int v; } *first, table[4];", "table", 0, True, False),
    ("int f(void) { union { int i; char c; } u, *pu; return 0; }", "pu", 1, False, False),
])
def test_parenthesized_declarator(src, name, ptr, is_array, is_param):
    res = parse_source(src)
    assert res.diagnostics == []
    (d,) = [n.decl for n in find_kind(res.unit, "Decl") if n.name == name]
    if ptr is None:
        assert d is None
    else:
        assert (d.ptr_depth, d.is_array, d.is_param) == (ptr, is_array, is_param)


@pytest.mark.parametrize("param", [
    "int (*)(const void *, const void *)",  # abstract, as in qsort or bsearch
    "void (*)(void)",
    "void (CALLBACK *cb)(int)",
    "int (&a)[3]",
])
def test_parameter_in_parentheses_without_a_plain_name_is_skipped(param):
    res = parse_source(f"void sort(void *base, size_t n, {param});\nint g(void) {{ return 0; }}")
    assert res.diagnostics == []
    assert [fn.name for fn in functions(res.unit)] == ["g"]
    src = f"int f({param}, int x) {{ char *p = 0; free(p); free(p); return x; }}"
    res = analyze_source(src.encode(), "x.c")
    assert (res.skipped_sites, [f.checker for f in res.findings]) == (0, ["double-free"])


def test_parenthesized_declarator_declares_its_name():
    res = analyze_source(b"int f(void){ int (*fp)(int); fp(1); return 0; }", "x.c")
    assert [(f.checker, f.line, f.col) for f in res.findings] == [("uninitialized-variable", 1, 30)]


def test_local_prototype_leaves_the_call_direct():
    src = b"int f(void){ int g(int); g(1); char *p = malloc(1); free(p); free(p); return 0; }"
    res = analyze_source(src, "x.c")
    assert [f.checker for f in res.findings] == ["double-free"]


def test_function_returning_a_function_pointer_is_analysed():
    src = "int (*get(void))(int) { char *p = 0; free(p); free(p); return 0; }"
    res = parse_source(src)
    assert res.diagnostics == []
    assert [(n.kind, n.name) for n in res.unit.children] == [("FunctionDef", "get")]
    res = analyze_source(src.encode(), "x.c")
    assert (res.skipped_sites, [f.checker for f in res.findings]) == (0, ["double-free"])


def test_declarator_nested_two_levels_deep_is_read():
    src = "int f(void){ int (*(*fpp))(int); (*fpp)(1); return 0; }"
    assert parse_source(src).diagnostics == []
    res = analyze_source(src.encode(), "x.c")
    assert [(f.checker, f.col) for f in res.findings] == [("uninitialized-variable", 36)]


def test_deep_declarators_hit_the_depth_limit_not_recursion():
    def messages(src):
        return [d.message for d in parse_source(src).diagnostics]

    def nested(n):
        return "int " + "(" * n + "x" + ")" * n + ";"

    assert messages(nested(150)) == []
    assert messages(nested(151)) == ["declarator too deeply nested"]
    assert messages(nested(5000)) == ["declarator too deeply nested"]
    # past the limit, an inner parameter is skipped like an abstract one
    params = "void f(" + "int g(" * 3000 + ")" * 3001 + ";"
    assert messages(params) == []
    for src in (nested(5000), params):
        assert analyze_source(src.encode(), "x.c").findings == []


# -- declarators: random nestings of stars, parentheses, bounds and
# parameter lists, printed and parsed back.

DECL_NAMES = ["a", "fp", "get", "tab"]


@st.composite
def declarators(draw, depth=0):
    """(tokens, (name, ptr_depth, is_array, params)): params is None
    without a parameter list after the name, else the (name, ptr_depth,
    is_array) of each named parameter."""
    def stars():
        return [t for _ in range(draw(st.integers(0, 2))) for t in draw(st.sampled_from([["*"], ["*", "const"]]))]

    ptr_toks = stars()
    name = draw(st.sampled_from(DECL_NAMES))
    bounds = draw(st.sampled_from([[], ["[", "]"], ["[", "4", "]"], ["[", "n", "+", "1", "]", "[", "2", "]"]]))
    toks = ptr_toks + [name] + bounds
    params = None
    if draw(st.booleans()):
        params, plist = [], []
        for _ in range(draw(st.integers(0, 2)) if depth < 2 else 0):
            if draw(st.integers(0, 4)) == 0:  # abstract: skipped, no Decl
                plist.append(["void", "(", "*", ")", "(", "void", ")"])
                continue
            ptoks, (pname, pptr, parray, _) = draw(declarators(depth + 1))
            plist.append(["char"] + ptoks)
            params.append((pname, pptr, parray))
        if plist and draw(st.booleans()):
            plist.append(["..."])
        joined = [t for i, p in enumerate(plist) for t in ([","] if i else []) + p]
        toks += ["("] + (joined or draw(st.sampled_from([[], ["void"]]))) + [")"]
    expect = (name, ptr_toks.count("*"), bool(bounds), params)
    for _ in range(draw(st.integers(0, 3))):  # enclosing levels
        outer = ["*"] + stars() if draw(st.booleans()) else []
        suffix = draw(st.sampled_from([[], ["(", "int", ")"], ["[", "8", "]"], ["(", ")", "[", "2", "]"]]))
        toks = outer + ["("] + toks + [")"] + suffix
    return toks, expect


@settings(max_examples=300, deadline=None)
@given(declarators(), st.booleans())
def test_declarator_round_trip(decl, at_file_scope):
    toks, (name, ptr, is_array, params) = decl
    text = "int " + " ".join(toks)
    if params is not None and at_file_scope:
        text += " { return 0; }"
    else:
        text += ";"
    res = parse_source(text if at_file_scope else f"int f(void) {{ {text} return 0; }}")
    assert res.diagnostics == [], text
    node = res.unit.children[0] if at_file_scope else res.unit.children[0].children[-1].children[0]
    assert (node.kind, node.name) == ("FunctionDef" if params is not None and at_file_scope else "Decl", name), text
    if params is None:
        assert (node.decl.name, node.decl.ptr_depth, node.decl.is_array) == (name, ptr, is_array), text
    elif at_file_scope:
        got = [(p.name, p.decl.ptr_depth, p.decl.is_array, p.decl.is_param) for p in node.children[:-1]]
        assert got == [(*p, True) for p in params], text
    else:
        assert node.decl is None, text


# -- precedence: random expression trees, printed with only the parentheses
# their operators' precedence needs, parse back to the same tree.

BINARY_LEVELS = [  # loosest first, as in C
    [","],
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="],
    ["?:"],
    ["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="], ["<", ">", "<=", ">="],
    ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
]
LEVEL = {op: level for level, ops in enumerate(BINARY_LEVELS) for op in ops}
UNARY, POSTFIX, PRIMARY = len(BINARY_LEVELS), len(BINARY_LEVELS) + 1, len(BINARY_LEVELS) + 2
ASSIGN, COND = LEVEL["="], LEVEL["?:"]
CAST_FOLLOWERS = ("(", "*", "&", "!", "~", "-", "+", "++", "--")  # after `)`, besides names and literals


def expr_level(e):
    tag = e[0]
    if tag == "bin":
        return LEVEL[e[1]]
    if tag == "cond":
        return COND
    if tag in ("pre", "cast"):
        return UNARY
    if tag in ("post", "call", "index", "member"):
        return POSTFIX
    return PRIMARY


def to_tokens(e, need=0):
    """The tokens of `e`, in parentheses only if it binds looser than `need`."""
    tag = e[0]
    if tag in ("id", "lit"):
        toks = [e[1]]
    elif tag == "bin":
        level = LEVEL[e[1]]
        right = level == ASSIGN  # assignment groups to the right
        toks = to_tokens(e[2], level + right) + [e[1]] + to_tokens(e[3], level + (not right))
    elif tag == "cond":
        toks = to_tokens(e[1], COND + 1) + ["?"] + to_tokens(e[2]) + [":"] + to_tokens(e[3], COND)
    elif tag == "pre":
        toks = [e[1]] + to_tokens(e[2], UNARY)
    elif tag == "cast":
        operand = to_tokens(e[2], UNARY)
        if not (operand[0][0].isalnum() or operand[0] in CAST_FOLLOWERS):
            operand = ["("] + operand + [")"]  # the parser tells a cast by what follows it
        toks = ["(", *e[1].split(), ")"] + operand
    elif tag == "post":
        toks = to_tokens(e[2], POSTFIX) + [e[1]]
    elif tag == "call":
        args = []
        for i, arg in enumerate(e[2]):
            args += [","] * (i > 0) + to_tokens(arg, ASSIGN)
        toks = to_tokens(e[1], POSTFIX) + ["("] + args + [")"]
    elif tag == "index":
        toks = to_tokens(e[1], POSTFIX) + ["["] + to_tokens(e[2]) + ["]"]
    else:  # member
        toks = to_tokens(e[2], POSTFIX) + [e[1], e[3]]
    return ["("] + toks + [")"] if expr_level(e) < need else toks


def expected_shape(e):
    """(kind, name, value, children) of the node the parser should build."""
    tag = e[0]
    if tag == "id":
        return ("Ident", e[1], None, ())
    if tag == "lit":
        return ("Literal", None, e[1], ())
    if tag == "bin":
        return ("Binary", None, e[1], (expected_shape(e[2]), expected_shape(e[3])))
    if tag == "cond":
        return ("Binary", None, "?:", tuple(map(expected_shape, e[1:])))
    if tag in ("pre", "post"):
        return ("Unary", None, e[1], (expected_shape(e[2]),))
    if tag == "cast":
        return ("Cast", None, e[1], (expected_shape(e[2]),))
    if tag == "call":
        callee = e[1][1] if e[1][0] == "id" else None
        return ("Call", callee, None, tuple(map(expected_shape, [e[1], *e[2]])))
    if tag == "index":
        return ("Binary", None, "[]", (expected_shape(e[1]), expected_shape(e[2])))
    return ("Binary", None, e[1], (expected_shape(e[2]), ("Ident", e[3], None, ())))


def parsed_shape(node):
    return (node.kind, node.name, node.value, tuple(map(parsed_shape, node.children)))


LEAVES = st.one_of(
    st.tuples(st.just("id"), st.sampled_from(["a", "b", "c", "p"])),
    st.tuples(st.just("lit"), st.sampled_from(["0", "7", '"s"', "'c'"])),
)
# operators that wrap one expression: prefix, cast, postfix and member
WRAPPERS = st.one_of(
    st.tuples(st.just("pre"), st.sampled_from(["++", "--", "&", "*", "+", "-", "!", "~"])),
    st.tuples(st.just("cast"), st.sampled_from(["int", "char *", "unsigned long"])),
    st.tuples(st.just("post"), st.sampled_from(["++", "--"])),
    st.tuples(st.just("member"), st.sampled_from([".", "->"]), st.sampled_from(["x", "y"])),
)
# a level first, then an operator of it, so that every level is common
BINARY_OPS = st.sampled_from([ops for ops in BINARY_LEVELS if ops != ["?:"]]).flatmap(st.sampled_from)


def _split(draw, leaves, parts):
    """`leaves` cut into `parts` positive sizes."""
    cuts = draw(st.lists(st.integers(1, leaves - 1), min_size=parts - 1, max_size=parts - 1, unique=True))
    bounds = [0, *sorted(cuts), leaves]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def expressions(draw, leaves):
    """A random expression tree with exactly `leaves` names and literals."""
    if leaves == 1:
        expr = draw(LEAVES)
    else:
        tag = draw(st.sampled_from(["bin", "bin", "bin", "cond", "cond", "call", "index"]))
        if tag == "cond" and leaves >= 3:
            parts = [draw(expressions(n)) for n in _split(draw, leaves, 3)]
            expr = ("cond", *parts)
        elif tag == "call":
            callee, *args = [draw(expressions(n)) for n in _split(draw, leaves, draw(st.integers(1, min(leaves, 4))))]
            expr = ("call", callee, args)
        elif tag == "index":
            expr = ("index", *[draw(expressions(n)) for n in _split(draw, leaves, 2)])
        else:
            lhs, rhs = [draw(expressions(n)) for n in _split(draw, leaves, 2)]
            expr = ("bin", draw(BINARY_OPS), lhs, rhs)
    for _ in range(max(draw(st.integers(0, 5)) - 3, 0)):  # mostly none, at most two
        wrapper = draw(WRAPPERS)
        expr = (*wrapper, expr) if wrapper[0] != "member" else ("member", wrapper[1], expr, wrapper[2])
    return expr


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16).flatmap(expressions))
def test_precedence_round_trip(expr):
    text = " ".join(to_tokens(expr))
    res = parse_source("int f(void) { return " + text + "; }")
    assert res.diagnostics == [], text
    (ret,) = find_kind(res.unit, "Return")
    assert [parsed_shape(c) for c in ret.children] == [expected_shape(expr)], text


@pytest.mark.parametrize(
    "text, shape",
    [
        ("a = b = c", ("=", "a", ("=", "b", "c"))),
        ("a - b - c", ("-", ("-", "a", "b"), "c")),
        ("a ? b : c ? p : a", ("?:", "a", "b", ("?:", "c", "p", "a"))),
        ("a ? b : c = p", ("=", ("?:", "a", "b", "c"), "p")),
        ("a = b ? c : p", ("=", "a", ("?:", "b", "c", "p"))),
        ("a || b && c | p", ("||", "a", ("&&", "b", ("|", "c", "p")))),
        ("a , b = c , p", (",", (",", "a", ("=", "b", "c")), "p")),
        ("a * b + c << p < a == b & c ^ p", ("^", ("&", ("==", ("<", ("<<", ("+", ("*", "a", "b"), "c"), "p"), "a"), "b"), "c"), "p")),
        ("a ? a , 1 : 0", ("?:", "a", (",", "a", "1"), "0")),
        ("a ? b = c , p : a , b", (",", ("?:", "a", (",", ("=", "b", "c"), "p"), "a"), "b")),
    ],
)
def test_precedence_examples(text, shape):
    def plain(node):
        if node.kind == "Ident":
            return node.name
        if node.kind == "Literal":
            return node.value
        return (node.value, *map(plain, node.children))

    res = parse_source("int f(void) { return " + text + "; }")
    assert res.diagnostics == [], text
    (ret,) = find_kind(res.unit, "Return")
    assert plain(ret.children[0]) == shape


@pytest.mark.parametrize(
    "text, cast, operand",
    [
        ("(int) ++a", "int", ("Unary", None, "++", (("Ident", "a", None, ()),))),
        ("(int) --a", "int", ("Unary", None, "--", (("Ident", "a", None, ()),))),
        ("(long) sizeof a", "long", ("Unary", None, "sizeof", (("Ident", "a", None, ()),))),
        ("(unsigned long) sizeof(int)", "unsigned long", ("Literal", None, "sizeof", ())),
    ],
)
def test_cast_before_increment_or_sizeof(text, cast, operand):
    res = parse_source("int f(int a) { return " + text + "; }")
    assert res.diagnostics == [] and find_kind(res.unit, "SkippedRegion") == [], text
    (ret,) = find_kind(res.unit, "Return")
    assert [parsed_shape(c) for c in ret.children] == [("Cast", None, cast, (operand,))]
