"""Bounded path-sensitive walker over FlowGraphs.

Enumerates execution paths depth-first, keeping one symbolic store per
path. Flow checkers see three hooks: ``pre_call`` before each call's
effects, ``branch_assumed`` after a branch condition is assumed, and
``variable_read`` on each read of a declared variable. Each hook goes
only to the checkers that override it. They inspect the path state and
report findings; the engine owns all resource, initialization, and
null-constraint transitions.

Each loop has one counter, keyed by its body block's id: the number of
edges into the body the path has taken, bounded by ``Budget.unroll``.
One counter is enough because lowering has no jumps: ``break`` and
``continue`` are no-ops, ``goto`` is not modelled and a ``switch`` is an
if-chain, so a path leaves a loop body only by its back edge or a
``return``, and the back edges taken follow from the entries. A
``goto`` or ``do`` lowered later must count every edge that enters or
re-enters a body some other way.

At join blocks (two or more incoming edges) the walk is memoized: a
finished subtree is recorded under (block, live loop counters,
``state_key``), and a path that reaches the same key again adds the
recorded path count instead of walking the subtree a second time. Its
findings are already reported, since they depend only on that key. The
memo is exact: findings, ``paths_explored`` and ``exhausted`` equal
those of a full walk at every budget, so findings stay monotone in
``max_paths``, and ``paths_explored`` counts the paths represented, not
the work done. A hit that would pass the budget stops the walk at
``max_paths`` as the full walk would have, partway through that subtree.

One backward liveness pass (``live_in``) decides what the key keeps. A
loop counter is a name read on every edge into its body and never
written, so the counters live into the join are those of the loops some
path from there can still enter. Before the key is taken, the walk
deletes every binding whose name is not live into the join block: the
temporary of a hoisted call after its one use, or a block local after
its block ends. ``state_key`` then leaves out the symbols only those
names reached. This keeps the memo exact: no path from the join reads a
dead name or counter before writing it, and every read of a symbol goes
through a binding, so no later step can tell the two states apart.
``PathState`` holds only what a checker reads: ``uninit`` (a ``static``
or ``extern`` local starts initialized) and ``origin``, the callee that
produced a call's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .cfg import EDGE_FALSE, EDGE_TRUE, Assign, CallStmt, CondBranch, FlowGraph, ReturnStmt
from .cparser import AstNode, DeclInfo
from .lexer import Span
from .report import Finding

HEAP_ALLOCATORS = ("malloc", "calloc", "realloc")
FILE_OPENERS = ("fopen", "freopen")


class Resource(Enum):
    HEAP = "heap-allocated"
    STACK = "stack-allocated"
    FREED = "freed"
    FILE_OPEN = "file-open"
    FILE_CLOSED = "file-closed"
    UNTRACKED = "untracked"

    __hash__ = object.__hash__  # Enum's own hash is a Python-level call


class Null(Enum):
    UNKNOWN = "unknown"
    IS_NULL = "is-null"
    NON_NULL = "non-null"

    __hash__ = object.__hash__


@dataclass
class PathState:
    bindings: dict[str, int] = field(default_factory=dict)
    resource: dict[int, Resource] = field(default_factory=dict)
    uninit: set[int] = field(default_factory=set)
    nullc: dict[int, Null] = field(default_factory=dict)
    konst: dict[int, int] = field(default_factory=dict)
    origin: dict[int, str] = field(default_factory=dict)  # call result -> callee
    derived: dict[int, tuple[int, int | None]] = field(default_factory=dict)
    fd_int: set[int] = field(default_factory=set)
    flags: set[str] = field(default_factory=set)

    def clone(self) -> "PathState":
        return PathState(
            dict(self.bindings),
            dict(self.resource),
            set(self.uninit),
            dict(self.nullc),
            dict(self.konst),
            dict(self.origin),
            dict(self.derived),
            set(self.fd_int),
            set(self.flags),
        )


@dataclass
class Budget:
    max_paths: int = 4096
    unroll: int = 2


@dataclass
class BudgetReport:
    paths_explored: int = 0
    exhausted: bool = False


class Checker:
    """Flow checker hooks: each may read the PathState and call ctx.report."""

    id = ""

    def __init__(self, cwe: int | None):
        self.cwe = cwe

    def pre_call(self, ctx, state, callee, arg_syms, span):
        pass

    def branch_assumed(self, ctx, state, expr, span):
        pass

    def variable_read(self, ctx, state, var, sym, span):
        pass


def _overriding(checkers: list[Checker], hook: str) -> list[Checker]:
    """The checkers whose class overrides `hook`; the rest would be no-op calls."""
    return [c for c in checkers if getattr(type(c), hook) is not getattr(Checker, hook)]


def state_key(state: PathState) -> tuple:
    """Canonical form of everything later steps of a path can read from `state`.

    Symbols are renumbered in the order they are first reached: bindings in
    sorted-name order, then the closure over `derived` bases. A symbol no
    binding reaches is dead, since every later read starts from a binding
    or a fresh symbol, so it is left out. Two states with equal keys lead
    to the same findings and the same number of paths.
    """
    bindings = state.bindings
    names = sorted(bindings)
    number: dict[int, int] = {}
    order: list[int] = []
    for name in names:
        sym = bindings[name]
        if sym not in number:
            number[sym] = len(order)
            order.append(sym)
    resource, uninit, nullc = state.resource.get, state.uninit, state.nullc.get
    konst, origin, derived, fd_int = state.konst.get, state.origin.get, state.derived.get, state.fd_int
    syms = []
    for sym in order:  # grows as derived bases are numbered
        d = derived(sym)
        if d is not None:
            base, offset = d
            if base not in number:
                number[base] = len(order)
                order.append(base)
            d = (number[base], offset)
        syms.append((resource(sym), sym in uninit, nullc(sym), konst(sym), origin(sym), d, sym in fd_int))
    return (
        tuple(names),
        tuple([number[bindings[name]] for name in names]),
        tuple(syms),
        frozenset(state.flags),
    )


def _add_reads(node: AstNode, names: set[str]):
    """Add the name of every Ident under `node` to `names`."""
    stack = [node]
    while stack:
        node = stack.pop()
        if node.kind == "Ident":
            names.add(node.name)
        else:
            stack.extend(node.children)


def live_in(fg: FlowGraph) -> dict[int, set[str | int]]:
    """The names and loop counters live on entry to each block: read on
    some path from there before they are written.

    Every ``Ident`` in an ``Assign``'s expression, a ``CallStmt``'s
    callee expression or arguments, or a terminator's expression is a
    read, also one under ``&`` or in a node ``eval_expr`` does not enter,
    so the sets over-approximate.
    An ``Assign``'s target and a ``CallStmt``'s target are writes. An
    edge into a loop body reads that loop's counter, the body block's id,
    in the edge's source block; nothing writes a counter. Back edges are
    followed to a fixpoint.
    """
    gen: dict[int, set[str | int]] = {}
    kill: dict[int, set[str]] = {}
    for blk in fg.blocks:
        live: set[str | int] = {e.dst for e in fg.successors(blk.id) if e.dst in fg.loop_entries}
        writes: set[str] = set()
        term = blk.terminator
        if term is not None and term.expr is not None:
            _add_reads(term.expr, live)
        for stmt in reversed(blk.stmts):
            if stmt.target is not None:
                live.discard(stmt.target)
                writes.add(stmt.target)
            if isinstance(stmt, CallStmt):
                for arg in stmt.args:
                    _add_reads(arg, live)
                if stmt.callee_expr is not None:
                    _add_reads(stmt.callee_expr, live)
            elif stmt.expr is not None:
                _add_reads(stmt.expr, live)
        gen[blk.id] = live
        kill[blk.id] = writes
    result: dict[int, set[str | int]] = {b: set() for b in gen}
    work = list(gen)  # the last block first
    while work:
        b = work.pop()
        live = set(gen[b])
        for e in fg.successors(b):
            live.update(result[e.dst] - kill[b])
        if live != result[b]:
            result[b] = live
            work.extend(fg.predecessors(b))
    return result


class Engine:
    def __init__(self, fg: FlowGraph, checkers: list[Checker], budget: Budget):
        self.fg = fg
        self.budget = budget
        self._pre_call = _overriding(checkers, "pre_call")
        self._branch_assumed = _overriding(checkers, "branch_assumed")
        self._variable_read = _overriding(checkers, "variable_read")
        self.findings: dict[tuple, Finding] = {}  # first finding per dedup_key
        self._next_sym = 0

    # -- helpers ----------------------------------------------------------

    def fresh_sym(self) -> int:
        self._next_sym += 1
        return self._next_sym

    def decl_of(self, var: str) -> DeclInfo | None:
        return self.fg.symbols.get(var)

    def report(self, checker: Checker, span: Span, message: str):
        f = Finding(
            checker=checker.id, cwe=checker.cwe, file="", line=span.line, col=span.col, message=message
        )
        self.findings.setdefault(f.dedup_key, f)

    def base_offset(self, state: PathState, sym: int) -> tuple[int, int | None]:
        seen = set()
        offset: int | None = 0
        while sym in state.derived and sym not in seen:
            seen.add(sym)
            base, k = state.derived[sym]
            if offset is None or k is None:
                offset = None
            else:
                offset += k
            sym = base
        return sym, offset

    def sym_of(self, state: PathState, expr: AstNode) -> int | None:
        """Resolve an expression to a symbol without raising read events."""
        while expr.kind == "Cast":
            expr = expr.children[0]
        if expr.kind == "Ident":
            return state.bindings.get(expr.name)
        return None

    def is_zero(self, state: PathState, expr: AstNode) -> bool:
        while expr.kind == "Cast":
            expr = expr.children[0]
        if expr.kind == "Literal":
            if expr.literal_kind == "null":
                return True
            try:
                return int(expr.value, 0) == 0
            except (ValueError, TypeError):
                return False
        sym = self.sym_of(state, expr)
        return sym is not None and state.konst.get(sym) == 0

    # -- expression evaluation ---------------------------------------------

    def eval_expr(self, state: PathState, node: AstNode) -> int:
        kind = node.kind
        if kind == "Ident":
            name = node.name
            if name in state.bindings:
                sym = state.bindings[name]
            else:
                # global / undeclared identifier: bind lazily, assumed init
                sym = self.fresh_sym()
                state.bindings[name] = sym
            if self._variable_read and not name.startswith("%") and name in self.fg.symbols:
                for c in self._variable_read:
                    c.variable_read(self, state, name, sym, node.span)
            return sym
        if kind == "Literal":
            sym = self.fresh_sym()
            if node.literal_kind == "null":
                state.nullc[sym] = Null.IS_NULL
                state.konst[sym] = 0
            elif node.literal_kind == "int-literal":
                try:
                    state.konst[sym] = int(node.value, 0)
                except (ValueError, TypeError):
                    pass
            return sym
        if kind == "Cast":
            return self.eval_expr(state, node.children[0])
        if kind == "Unary":
            op = node.value
            if op == "&":
                inner = node.children[0]
                if inner.kind == "Ident" and inner.name in state.bindings:
                    target_sym = state.bindings[inner.name]
                    state.uninit.discard(target_sym)
                    state.resource[target_sym] = Resource.UNTRACKED
                sym = self.fresh_sym()
                state.nullc[sym] = Null.NON_NULL
                return sym
            if op in ("++", "--"):
                base = self.eval_expr(state, node.children[0])
                return self.derive(state, base, 1 if op == "++" else -1)
            operand = self.eval_expr(state, node.children[0])
            sym = self.fresh_sym()
            if op == "-" and operand in state.konst:
                state.konst[sym] = -state.konst[operand]
            elif op == "!" and operand in state.konst:
                state.konst[sym] = int(state.konst[operand] == 0)
            return sym
        if kind == "Binary":
            op = node.value
            if op in ("+", "-"):
                lhs, rhs = node.children
                l = self.eval_expr(state, lhs)
                r = self.eval_expr(state, rhs)
                lp = self.is_pointerish_sym(state, lhs, l)
                rp = self.is_pointerish_sym(state, rhs, r)
                if lp and not rp:
                    k = state.konst.get(r)
                    return self.derive(state, l, (k if op == "+" else -k) if k is not None else None)
                if rp and not lp and op == "+":
                    k = state.konst.get(l)
                    return self.derive(state, r, k)
                sym = self.fresh_sym()
                if l in state.konst and r in state.konst:
                    state.konst[sym] = (
                        state.konst[l] + state.konst[r]
                        if op == "+"
                        else state.konst[l] - state.konst[r]
                    )
                return sym
            syms = [self.eval_expr(state, c) for c in node.children]
            if op == ",":
                return syms[-1]
            return self.fresh_sym()
        # SkippedRegion, or any other kind lowering leaves (calls are hoisted)
        return self.fresh_sym()

    def derive(self, state: PathState, base: int, offset: int | None) -> int:
        sym = self.fresh_sym()
        if base in state.uninit:
            state.uninit.add(sym)
        state.derived[sym] = (base, offset)
        return sym

    def is_pointerish_sym(self, state: PathState, expr: AstNode, sym: int) -> bool:
        while expr.kind == "Cast":
            expr = expr.children[0]
        if expr.kind == "Ident":
            decl = self.decl_of(expr.name)
            if decl is not None and decl.pointerish:
                return True
        root, _ = self.base_offset(state, sym)
        return state.resource.get(root) in (
            Resource.HEAP,
            Resource.STACK,
            Resource.FILE_OPEN,
        )

    # -- transfer -----------------------------------------------------------

    def apply_transfer(self, state: PathState, stmt):
        if isinstance(stmt, Assign):
            self._transfer_assign(state, stmt)
        else:
            self._transfer_call(state, stmt)

    def _transfer_assign(self, state: PathState, stmt: Assign):
        if stmt.expr is None:
            # declaration without initializer
            # has_init also marks a static or extern local: it starts initialized
            sym = self.fresh_sym()
            decl = stmt.decl
            if decl is not None and not (decl.is_param or decl.is_array or decl.has_init):
                state.uninit.add(sym)
            state.bindings[stmt.target] = sym
            return
        sym = self.eval_expr(state, stmt.expr)
        if sym in state.uninit:
            # `b = a` with `a` uninitialized: `b` gets an initialized copy
            # of the symbol, and `a` stays uninitialized.
            copy = self.fresh_sym()
            for facts in (state.resource, state.nullc, state.konst, state.origin, state.derived):
                if sym in facts:
                    facts[copy] = facts[sym]
            if sym in state.fd_int:
                state.fd_int.add(copy)
            sym = copy
        state.bindings[stmt.target] = sym

    def _transfer_call(self, state: PathState, stmt: CallStmt):
        callee = stmt.callee or "<indirect>"
        if stmt.callee_expr is not None:
            self.eval_expr(state, stmt.callee_expr)
        arg_syms = [self.eval_expr(state, a) for a in stmt.args]
        for c in self._pre_call:
            c.pre_call(self, state, callee, arg_syms, stmt.span)

        result = self.fresh_sym()
        state.origin[result] = callee
        if callee in HEAP_ALLOCATORS:
            state.resource[result] = Resource.HEAP
            state.nullc[result] = Null.UNKNOWN
        elif callee == "alloca":
            state.resource[result] = Resource.STACK
            state.nullc[result] = Null.NON_NULL
        elif callee in FILE_OPENERS:
            state.resource[result] = Resource.FILE_OPEN
            state.nullc[result] = Null.UNKNOWN
        elif callee == "open":
            state.resource[result] = Resource.FILE_OPEN
            if stmt.target_decl is not None and stmt.target_decl.ptr_depth == 0 and "int" in stmt.target_decl.base.split():
                state.fd_int.add(result)
        elif callee == "free" and arg_syms:
            state.resource[arg_syms[0]] = Resource.FREED
        elif callee == "fclose" and arg_syms:
            state.resource[arg_syms[0]] = Resource.FILE_CLOSED
        elif callee == "fwide":
            state.flags.add("fwide-called")

        if stmt.target is not None:
            state.bindings[stmt.target] = result

    # -- branch assumptions ----------------------------------------------

    def assume(self, state: PathState, cond: AstNode, taken: bool) -> PathState | None:
        """Refine null constraints; None means the branch is infeasible."""
        expr = cond
        while expr.kind == "Cast":
            expr = expr.children[0]
        if expr.kind == "Binary" and expr.value in ("==", "!="):
            lhs, rhs = expr.children
            for sym_side, zero_side in ((lhs, rhs), (rhs, lhs)):
                sym = self.sym_of(state, sym_side)
                if sym is None or not self.is_zero(state, zero_side):
                    continue
                if not self._pointer_side(state, sym_side, sym):
                    continue
                equals_null = (expr.value == "==") == taken
                return self._constrain(state, sym, Null.IS_NULL if equals_null else Null.NON_NULL)
            return state
        if expr.kind == "Ident":
            sym = self.sym_of(state, expr)
            if sym is not None and self._pointer_side(state, expr, sym):
                return self._constrain(state, sym, Null.NON_NULL if taken else Null.IS_NULL)
            return state
        if expr.kind == "Unary" and expr.value == "!":
            return self.assume(state, expr.children[0], not taken)
        return state

    def _pointer_side(self, state: PathState, expr: AstNode, sym: int) -> bool:
        return self.is_pointerish_sym(state, expr, sym) or state.nullc.get(sym) is not None

    def _constrain(self, state: PathState, sym: int, constraint: Null) -> PathState | None:
        current = state.nullc.get(sym, Null.UNKNOWN)
        if current != Null.UNKNOWN and current != constraint:
            return None
        state.nullc[sym] = constraint
        return state

    # -- path enumeration ---------------------------------------------------

    def run(self) -> tuple[list[Finding], BudgetReport]:
        report = BudgetReport()
        max_paths = self.budget.max_paths
        state0 = PathState()
        for var in self.fg.params:
            state0.bindings[var] = self.fresh_sym()

        blocks = {b.id: b for b in self.fg.blocks}
        branch_edges = {}  # CondBranch block -> (true edge, false edge)
        for blk in self.fg.blocks:
            if isinstance(blk.terminator, CondBranch):
                succs = self.fg.successors(blk.id)
                branch_edges[blk.id] = (
                    next(e for e in succs if e.label == EDGE_TRUE),
                    next(e for e in succs if e.label == EDGE_FALSE),
                )
        live = live_in(self.fg)
        joins = {b: live[b] for b in blocks if len(self.fg.predecessors(b)) >= 2}
        # Paths under each finished join-block subtree, by (block, counters, state key).
        memo: dict[tuple, int] = {}

        stack: list[tuple] = [(self.fg.entry, state0, {})]
        while stack:
            block_id, state, loopcounts = stack.pop()
            if block_id is None:
                # sentinel (None, key, paths before): that subtree is finished
                memo[state] = report.paths_explored - loopcounts
                continue
            if report.paths_explored >= max_paths:
                report.exhausted = True
                break
            live_here = joins.get(block_id)
            if live_here is not None:
                bindings = state.bindings  # dead names go before the key
                for name in [n for n in bindings if n not in live_here]:
                    del bindings[name]
                counts = frozenset([c for c in loopcounts.items() if c[0] in live_here])
                key = (block_id, counts, state_key(state))
                n = memo.get(key)
                if n is not None:
                    # Its findings are already reported; only its paths remain.
                    if report.paths_explored + n > max_paths:
                        report.paths_explored = max_paths
                        report.exhausted = True
                        break
                    report.paths_explored += n
                    continue
                stack.append((None, key, report.paths_explored))
            blk = blocks[block_id]
            for stmt in blk.stmts:
                self.apply_transfer(state, stmt)

            term = blk.terminator
            if isinstance(term, ReturnStmt):
                if term.expr is not None:
                    self.eval_expr(state, term.expr)
                report.paths_explored += 1
                continue

            if isinstance(term, CondBranch):
                self.eval_expr(state, term.expr)  # reads fire once per visit
                children = []
                for taken, edge in zip((True, False), branch_edges[block_id]):
                    # the false arm, assumed last, takes the parent state
                    st = self.assume(state.clone() if taken else state, term.expr, taken)
                    if st is None:
                        continue
                    for c in self._branch_assumed:
                        c.branch_assumed(self, st, term.expr, term.span)
                    child = self._follow(edge, st, loopcounts)
                    if child is not None:
                        children.append(child)
                if not children:
                    report.paths_explored += 1
                for child in reversed(children):  # LIFO: true branch first
                    stack.append(child)
            else:
                succs = self.fg.successors(block_id)
                child = self._follow(succs[0], state, loopcounts) if succs else None
                if child is None:
                    report.paths_explored += 1
                else:
                    stack.append(child)

        return sorted(self.findings.values(), key=lambda f: f.sort_key), report

    def _follow(self, edge, state: PathState, loopcounts: dict):
        dst = edge.dst
        if dst in self.fg.loop_entries:
            # starting one loop iteration; bounded by the unroll budget
            taken = loopcounts.get(dst, 0)
            if taken >= self.budget.unroll:
                return None
            loopcounts = {**loopcounts, dst: taken + 1}
        return (dst, state, loopcounts)


def analyze_function(
    fg: FlowGraph, checkers: list[Checker], budget: Budget | None = None
) -> tuple[list[Finding], BudgetReport]:
    """Explore paths of one function under budget, collecting findings."""
    return Engine(fg, checkers, budget or Budget()).run()
