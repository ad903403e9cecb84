import dataclasses
import json
import random
import time

import pytest

from conftest import FIXTURES
from wasmsmell import analyze_source
from wasmsmell.cfg import build_cfg
from wasmsmell.cparser import parse_source
from wasmsmell import engine
from wasmsmell.engine import Budget, Null, PathState, Resource, analyze_function, state_key
from wasmsmell.checkers import all_checker_ids, make_flow_checkers, default_checker_ids


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


# Crafted functions whose subtrees repeat at join blocks. For every max_paths
# up to one past each function's path count, engine_budget_grid.json pins what
# the full walk (the engine before its subtree memo) reported. Every function
# has memo hits that land exactly on the budget and hits that overshoot it.
# The `x = 5` branch in the loops brings a loop header back to one state under
# different loop counters. The last three merge only once dead bindings are
# dropped at joins: a hoisted call's temporary, a block local after its block,
# and a loop variable that stays live around the back edge.
GRID_FUNCTIONS = {
    "if_chain_double_free": (2, """
    int f(int a, int b, int c) {
        char *p = (char *)malloc(8);
        int x = a;
        if (b) { x = b * 2; } else { free(p); free(p); }
        if (a) { x = a * 3; }
        if (c) { x = c * 3; }
        if (a > c) { x = x * 3 + c; }
        return x;
    }
    """),
    "free_then_later_free": (2, """
    int f(int a, int b) {
        char *p = (char *)malloc(8);
        int x = 0;
        if (a) { x = a * 2; } else { free(p); }
        if (b) { x = b * 2; } else { x = a * 2; }
        if (b > a) { x = x * 3 + a; }
        free(p);
        return x;
    }
    """),
    "loop_unroll_1": (1, """
    int f(int n, int a) {
        char *p = (char *)malloc(8);
        int x = 0;
        while (n) { if (a > n) { x = a * 3; } else { x = 5; } n = n - 1; }
        if (a) { x = a * 2; } else { free(p); }
        if (x) { x = x * 3; }
        free(p);
        return x;
    }
    """),
    "loop_unroll_2": (2, """
    int f(int n, int a) {
        char *p = (char *)malloc(8);
        int x = 0;
        while (n) { if (a > n) { x = a * 3; } else { x = 5; } n = n - 1; }
        if (a) { x = a * 2; } else { free(p); }
        if (x) { x = x * 3; }
        free(p);
        return x;
    }
    """),
    "if_in_loop": (2, """
    int f(int n, int a) {
        char *p = (char *)malloc(8);
        int d;
        while (n > 0) {
            if (a > n) { use(a); } else { free(p); }
            if (n) { d = n; }
            n = n - 1;
        }
        use(d);
        return 0;
    }
    """),
    "call_bodied_if_chain": (2, """
    int f(int a, int b, int c) {
        char *p = (char *)malloc(8);
        if (a) { use(a); } else { free(p); free(p); }
        if (b) { use(b); }
        if (c) { use(c); }
        if (a > c) { use(a); }
        return 0;
    }
    """),
    "branch_local_dead_after_if": (2, """
    int f(int a, int b) {
        char *p = (char *)malloc(8);
        if (a) { char *q = (char *)malloc(4); use(q); free(q); } else { free(p); }
        if (b) { char *r = p; free(r); }
        if (a > b) { use(b); }
        free(p);
        return 0;
    }
    """),
    "loop_carried_header_read": (2, """
    int f(int n, int a) {
        char *p = (char *)malloc(8);
        int i = 0;
        while (i < n) { if (a > i) { use(a); } else { free(p); } i = i + 1; }
        if (a) { use(a); }
        free(p);
        return i;
    }
    """),
}


def budget_grid(src: str, unroll: int) -> list:
    """[max_paths, sorted dedup keys, paths_explored, exhausted] for every
    max_paths from 1 to the function's path count + 1."""
    total = run(src, all_checker_ids(), Budget(max_paths=10**9, unroll=unroll))[1].paths_explored
    grid = []
    for k in range(1, total + 2):
        findings, report = run(src, all_checker_ids(), Budget(max_paths=k, unroll=unroll))
        keys = sorted(list(f.dedup_key) for f in findings)
        grid.append([k, keys, report.paths_explored, report.exhausted])
    return grid


@pytest.mark.parametrize("name", sorted(GRID_FUNCTIONS))
def test_budget_grid_pinned(name):
    expected = json.loads((FIXTURES / "expected" / "engine_budget_grid.json").read_text())
    unroll, src = GRID_FUNCTIONS[name]
    assert budget_grid(src, unroll) == expected[name]


def test_wide_if_chain_counts_every_path_quickly():
    body = "".join(f"    if (a > {i}) acc = acc * 3 + k;\n" for i in range(40))
    src = f"int f(int a, int k) {{\n    int acc = 0;\n{body}    return acc;\n}}\n"
    started = time.monotonic()
    findings, report = run(src, budget=Budget(max_paths=2**41))
    assert time.monotonic() - started < 1.0
    assert report.paths_explored == 2**40
    assert report.exhausted is False
    assert findings == []


def test_state_key_covers_every_path_state_field():
    def base() -> PathState:
        st = PathState()
        st.bindings = {"p": 1, "q": 2}
        st.derived = {2: (3, 4)}
        return st

    # One change per field, each to a symbol the bindings reach.
    changes = {
        "bindings": lambda st: st.bindings.update(r=1),
        "resource": lambda st: st.resource.update({3: Resource.FREED}),
        "uninit": lambda st: st.uninit.add(3),
        "nullc": lambda st: st.nullc.update({1: Null.NON_NULL}),
        "konst": lambda st: st.konst.update({3: 0}),
        "origin": lambda st: st.origin.update({1: "fopen"}),
        "derived": lambda st: st.derived.update({2: (3, None)}),
        "fd_int": lambda st: st.fd_int.add(3),
        "flags": lambda st: st.flags.add("fwide-called"),
    }
    assert set(changes) == {f.name for f in dataclasses.fields(PathState)}
    for name, change in changes.items():
        st = base()
        change(st)
        assert state_key(st) != state_key(base()), name


def test_state_key_ignores_symbol_numbers_and_dead_symbols():
    a = PathState(bindings={"x": 5, "y": 9}, uninit={9, 7})
    b = PathState(bindings={"y": 2, "x": 1}, uninit={2})
    b.resource[4] = Resource.FREED  # symbols 7 and 4 are unreachable from the bindings
    assert state_key(a) == state_key(b)


def test_call_bodied_if_chain_merges_at_every_join(monkeypatch):
    body = "".join(f"    if (a > {i}) {{ use(a); }}\n" for i in range(12))
    src = f"int f(int a) {{\n{body}    return 0;\n}}\n"
    calls = 0
    key = engine.state_key

    def counting_key(state):
        nonlocal calls
        calls += 1
        return key(state)

    monkeypatch.setattr(engine, "state_key", counting_key)
    _, report = run(src)
    assert report.paths_explored == 4096
    assert calls <= 2 * 12 + 2  # 8,190 when each use(a) temporary stays bound


def test_loops_in_sequence_merge_after_each_loop(monkeypatch):
    ifs = "".join(f"    if (a > {k}) {{ use(a); }}\n" for k in range(3))
    loop = "    for (i = 0; i < n; i++) { use(i); }\n" + ifs
    src = f"int f(int a, int n) {{\n    int i;\n{loop * 4}    return 0;\n}}\n"
    calls = 0
    key = engine.state_key

    def counting_key(state):
        nonlocal calls
        calls += 1
        return key(state)

    monkeypatch.setattr(engine, "state_key", counting_key)
    _, report = run(src, budget=Budget(max_paths=10**6))
    assert report.paths_explored == (3 * 2**3) ** 4
    # Per loop: its header under 3 counter sets, the first if's join after
    # each of the 3 exits, 2 for each other if. 840 while every finished
    # loop's counters stay in the key.
    assert calls <= 4 * (3 + 3 * 2 + 2 * 2)


def random_function(rng: random.Random) -> str:
    """A small function of if/else, loops (some in sequence), calls (some
    through a callee expression), free/malloc and block locals."""
    budget = [6]  # branching statements left

    def cond():
        return rng.choice(["a > b", "p", "p == NULL", "q != NULL", "!q", "use(a)", "n", "b > 1"])

    def var():
        return rng.choice(["a", "b", "n", "d"])

    def stmt(depth):
        kinds = ["call", "free", "malloc", "assign", "local", "alias", "address", "indirect"]
        if depth < 3 and budget[0] > 0:
            kinds += ["if", "ifelse", "loop", "block"] * 3 + ["fors"]
        kind = rng.choice(kinds)
        if kind in ("if", "ifelse", "loop", "fors"):
            budget[0] -= 1 + (kind == "fors")
        ptr = rng.choice(["p", "q"])
        if kind == "call":
            return f"use({var()});"
        if kind == "free":
            return f"free({ptr});"
        if kind == "malloc":
            return f"{ptr} = (char *)malloc(8);"
        if kind == "assign":
            return f"{var()} = {var()} + {rng.randint(0, 2)};"
        if kind == "local":
            return f"int t = use({var()}); use(t);"
        if kind == "address":
            return f"use(&{var()});"
        if kind == "indirect":
            return f"ops[{var()}]({var()});"
        if kind == "alias":
            return f"char *r = {ptr}; {ptr} = r + {rng.randint(0, 1)};"
        if kind == "if":
            return f"if ({cond()}) {{ {stmts(depth + 1)} }}"
        if kind == "ifelse":
            return f"if ({cond()}) {{ {stmts(depth + 1)} }} else {{ {stmts(depth + 1)} }}"
        if kind == "loop":
            return f"while (n > {rng.randint(0, 2)}) {{ {stmts(depth + 1)} n = n - 1; }}"
        if kind == "fors":  # loops in sequence: each one's counters are dead after it
            return " ".join(f"for (int i = 0; i < {var()}; i++) {{ {stmt(3)} }} {stmt(3)}" for _ in range(2))
        return f"{{ char *r = (char *)malloc(4); {stmts(depth + 1)} free(r); }}"

    def stmts(depth):
        return " ".join(stmt(depth) for _ in range(rng.randint(1, 3)))

    top = " ".join(stmt(0) for _ in range(rng.randint(2, 4)))
    last = rng.choice(["use(d);", "ops[d](0);"])  # d read last in an argument or a callee
    return f"int f(int a, int b, int n, char *p) {{ char *q = p; int d; {top} {last} return a; }}"


class _AllNames:
    """A live set that holds every name, so no binding is deleted."""

    def __contains__(self, name):
        return True


def test_engine_equals_the_full_walk_on_random_functions(monkeypatch):
    rng = random.Random(20261019)
    sources = [random_function(rng) for _ in range(200)]
    budgets = [Budget(max_paths=k) for k in (1, 7, 64, 10**9)]

    def outcomes():
        out = []
        for src in sources:
            for budget in budgets:
                findings, report = run(src, all_checker_ids(), budget)
                out.append(([f.dedup_key for f in findings], report.paths_explored, report.exhausted))
        return out

    got = outcomes()
    # The full walk: no memo hit, and no binding deleted at a join.
    monkeypatch.setattr(engine, "state_key", lambda st: object())
    monkeypatch.setattr(engine, "live_in", lambda fg: {b.id: _AllNames() for b in fg.blocks})
    assert got == outcomes()
