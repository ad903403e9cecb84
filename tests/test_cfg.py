import random

from conftest import FIXTURES
from wasmsmell import analyze_source
from wasmsmell.cfg import (
    EDGE_BACK,
    EDGE_FALSE,
    EDGE_TRUE,
    Assign,
    CallStmt,
    CondBranch,
    ReturnStmt,
    build_cfg,
)
from wasmsmell.cparser import parse_source


def cfg_of(src: str):
    unit = parse_source(src).unit
    fns = [n for n in unit.children if n.kind == "FunctionDef"]
    assert len(fns) == 1
    return build_cfg(fns[0])


def all_stmts(fg):
    out = []
    for b in fg.blocks:
        out.extend(b.stmts)
        if b.terminator is not None:
            out.append(b.terminator)
    return out


def call_order(fg):
    return [s.callee for s in all_stmts(fg) if isinstance(s, CallStmt)]


def test_straightline_function():
    fg = cfg_of("int f(void) { int x = 1; return x; }")
    assert fg.name == "f"
    assert len(fg.blocks) >= 1
    assert any(isinstance(s, Assign) and s.target == "x" for s in all_stmts(fg))


def test_call_hoisting_inner_before_outer():
    fg = cfg_of("int f(void) { int x = outer(inner(1)); return x; }")
    assert call_order(fg) == ["inner", "outer"]
    outer = [s for s in all_stmts(fg) if isinstance(s, CallStmt) and s.callee == "outer"][0]
    assert outer.target == "x"


def test_calls_in_a_callee_expression_are_hoisted_first():
    fg = cfg_of("int f(char *p) { int x = pick(free(p))(0); pick(g(p))(1); return x; }")
    assert call_order(fg) == ["free", "pick", None, "g", "pick", None]
    assert [s.target for s in all_stmts(fg) if isinstance(s, CallStmt)][2] == "x"


def test_double_free_inside_a_callee_expression_is_found():
    res = analyze_source(b"int f(char *p){ free(p); pick(free(p))(0); return 0; }", "x.c")
    assert [(f.checker, f.line, f.col) for f in res.findings] == [("double-free", 1, 31)]


def test_a_read_in_a_callee_expression_is_seen():
    fg = cfg_of("int f(struct s *t) { int x = t->cb(1); return x; }")
    call = [s for s in all_stmts(fg) if isinstance(s, CallStmt)][0]
    assert (call.callee, call.target) == (None, "x")
    assert call.callee_expr.value == "->" and call.callee_expr.children[0].name == "t"
    res = analyze_source(b"int f(void){ struct s *t; t->cb(1); return 0; }", "x.c")
    assert [(f.checker, f.line, f.col) for f in res.findings] == [("uninitialized-variable", 1, 27)]


def test_a_callee_that_is_a_local_is_read():
    src = "typedef int (*op)(int); int f(op cb) { op fp; cb(1); fp(2); g(3); return 0; }"
    calls = [s for s in all_stmts(cfg_of(src)) if isinstance(s, CallStmt)]
    assert [(s.callee, s.callee_expr and s.callee_expr.name) for s in calls] == [
        (None, "cb"), (None, "fp"), ("g", None),
    ]
    res = analyze_source(b"typedef int (*op)(int); int f(void){ op fp; fp(1); return 0; }", "x.c")
    assert [(f.checker, f.line, f.col) for f in res.findings] == [("uninitialized-variable", 1, 45)]


def test_call_result_through_cast_keeps_target():
    fg = cfg_of("int f(void) { char *p = (char *)malloc(8); return 0; }")
    call = [s for s in all_stmts(fg) if isinstance(s, CallStmt)][0]
    assert call.callee == "malloc"
    assert call.target == "p"
    assert call.target_decl is not None and call.target_decl.pointerish


def test_if_edges_labeled():
    fg = cfg_of("int f(int c) { if (c) return 1; return 0; }")
    labels = {e.label for e in fg.edges}
    assert EDGE_TRUE in labels and EDGE_FALSE in labels
    branches = [b.terminator for b in fg.blocks if isinstance(b.terminator, CondBranch)]
    assert len(branches) == 1


def test_short_circuit_and_lowers_to_two_branches():
    fg = cfg_of("int f(int a, int b) { if (a && b) return 1; return 0; }")
    branches = [b.terminator for b in fg.blocks if isinstance(b.terminator, CondBranch)]
    assert len(branches) == 2


def test_short_circuit_or_lowers_to_two_branches():
    fg = cfg_of("int f(int a, int b) { if (a || b) return 1; return 0; }")
    branches = [b.terminator for b in fg.blocks if isinstance(b.terminator, CondBranch)]
    assert len(branches) == 2


def test_negation_swaps_true_false_targets():
    plain = cfg_of("int f(int a) { if (a) return 1; return 0; }")
    neg = cfg_of("int f(int a) { if (!a) return 1; return 0; }")

    def edge_dst_returns(fg, label, value):
        branch_block = [b for b in fg.blocks if isinstance(b.terminator, CondBranch)][0]
        edge = [e for e in fg.successors(branch_block.id) if e.label == label][0]
        dst = [b for b in fg.blocks if b.id == edge.dst][0]
        term = dst.terminator
        return term is not None and getattr(term.expr, "value", None) == value

    # `if (a)` takes the then-branch on true; `if (!a)` lowers to a branch on
    # `a` itself with the then- and else-targets swapped.
    assert edge_dst_returns(plain, EDGE_TRUE, "1")
    assert edge_dst_returns(neg, EDGE_FALSE, "1")
    assert edge_dst_returns(neg, EDGE_TRUE, "0")


def test_while_loop_has_back_edge_and_loop_entry():
    fg = cfg_of("int f(int c) { while (c) { c = c - 1; } return c; }")
    assert any(e.label == EDGE_BACK for e in fg.edges)
    assert fg.loop_entries
    (body, header), = fg.loop_entries.items()
    assert any(e.src == body or e.dst == header for e in fg.edges)


def test_for_loop_has_back_edge():
    fg = cfg_of("int f(void) { int s = 0; for (int i = 0; i < 3; i++) { s = s + i; } return s; }")
    assert any(e.label == EDGE_BACK for e in fg.edges)
    assert fg.loop_entries


def test_shadowed_variable_renamed():
    fg = cfg_of("int f(void) { int x = 1; { int x = 2; use(x); } return x; }")
    names = {s.target for s in all_stmts(fg) if isinstance(s, Assign)}
    assert "x" in names
    assert "x@2" in names


def test_params_registered():
    fg = cfg_of("int f(int a, char *p) { return a; }")
    assert fg.params == ["a", "p"]
    assert fg.symbols["p"].pointerish
    assert not fg.symbols["a"].pointerish


def test_unreachable_blocks_pruned():
    fg = cfg_of("int f(void) { return 1; if (0) { return 2; } }")
    reachable = {fg.entry}
    frontier = [fg.entry]
    while frontier:
        b = frontier.pop()
        for e in fg.successors(b):
            if e.dst not in reachable:
                reachable.add(e.dst)
                frontier.append(e.dst)
    assert {b.id for b in fg.blocks} == reachable


def test_switch_becomes_branch_chain():
    fg = cfg_of(
        "int f(int x) { switch (x) { case 1: return 1; case 2: return 2; default: return 0; } }"
    )
    branches = [b for b in fg.blocks if isinstance(b.terminator, CondBranch)]
    assert len(branches) == 2  # one comparison per non-default case


def test_switch_arms_share_one_scope():
    # The `a` of the first arm is the one the second arm assigns; the
    # `return` after the switch reads the outer `a` again.
    fg = cfg_of("int f(int x) { int a = 1; switch (x) { case 1: int a = 2; case 2: a = 3; } return a; }")
    assert [s.target for s in all_stmts(fg) if isinstance(s, Assign)] == ["a", "%switch", "a@2", "a@2"]
    (ret,) = [s for s in all_stmts(fg) if isinstance(s, ReturnStmt)]
    assert ret.expr.name == "a"


def test_switch_arms_compare_one_hidden_name():
    # Each arm compares the one hidden name; the call in the scrutinee is
    # lowered once, at the column where it is written.
    fg = cfg_of("int f(int x) { switch (g(x)) { case 1: return 1; case 2: return 2; case 3: return 3; } return 0; }")
    calls = [s for s in all_stmts(fg) if isinstance(s, CallStmt)]
    assert [(s.callee, s.target, s.span.col) for s in calls] == [("g", "%switch", 24)]
    conds = [s.expr.children[0].name for s in all_stmts(fg) if isinstance(s, CondBranch)]
    assert conds == ["%switch"] * 3


def test_declared_types_in_symbols():
    fg = cfg_of(
        'int main(void) { FILE *f = fopen("file.txt", "w+"); int g = open(0); '
        'char string2[] = "a/b"; return 0; }'
    )
    f = fg.symbols["f"]
    assert f.base == "FILE" and f.pointerish
    g = fg.symbols["g"]
    assert g.base == "int" and not g.pointerish
    s2 = fg.symbols["string2"]
    assert s2.base == "char" and s2.is_array
    assert "missing" not in fg.symbols


def test_lowering_emits_only_what_the_engine_reads():
    # Over the fixtures, the first 200 criterion-5 inputs and a function
    # with a skipped region and calls in every position: every block
    # statement is an Assign or a CallStmt, every terminator a CondBranch,
    # a ReturnStmt or None, and no lowered expression still holds a call.
    rng = random.Random(1234)
    sources = [rng.randbytes(rng.randrange(0, 4097)) for _ in range(200)]
    sources += [p.read_bytes() for p in sorted(FIXTURES.rglob("*.c"))]
    sources.append(
        b"int f(int a, int *p) { do { a--; } while (a); p[g(a)] += h(a); "
        b"while (k(a) && !k(a + 1)) a = (int)m(a), n(a); pick(g(a))(a); t[h(a)](a); "
        b"return r(s(a)) + 1; }"
    )
    functions = 0
    for source in sources:
        for top in parse_source(source).unit.children:
            if top.kind != "FunctionDef":
                continue
            functions += 1
            for blk in build_cfg(top).blocks:
                assert all(isinstance(s, (Assign, CallStmt)) for s in blk.stmts)
                assert blk.terminator is None or isinstance(blk.terminator, (CondBranch, ReturnStmt))
                exprs = [s.expr for s in blk.stmts if isinstance(s, Assign)]
                exprs += [a for s in blk.stmts if isinstance(s, CallStmt) for a in s.args]
                exprs += [s.callee_expr for s in blk.stmts if isinstance(s, CallStmt)]
                exprs.append(getattr(blk.terminator, "expr", None))
                assert not any(n.kind == "Call" for e in exprs if e is not None for n in e.walk())
    assert functions > 20
