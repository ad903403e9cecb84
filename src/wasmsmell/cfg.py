"""Per-function control-flow graphs and the block scoping they share.

Lowers the structured AST into basic blocks of simplified statements.
Calls nested inside expressions, callee expressions included, are
hoisted into explicit CallStmt temporaries so that flow checkers observe
every call event, and short-circuit conditions become nested branches.

The parser's DeclInfo is the one declared-type record: Scopes.symbols,
Assign.decl, CallStmt.target_decl and FlowGraph.symbols hold the very
objects the parser made. Every block statement is an Assign or a
CallStmt, and every terminator a CondBranch, a ReturnStmt or None.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cparser import AstNode, DeclInfo
from .lexer import Span

EDGE_FALLTHROUGH = "fallthrough"
EDGE_TRUE = "branch-true"
EDGE_FALSE = "branch-false"
EDGE_BACK = "back-edge"


class Scopes:
    """C block scoping: a name is visible from its declaration to the end
    of its block. A redeclared `x` gets the unique name `x@2`, `x@3`, ..."""

    def __init__(self):
        self.stack: list[dict[str, str]] = [{}]
        self.name_counts: dict[str, int] = {}
        self.symbols: dict[str, DeclInfo] = {}  # unique name -> declared type

    def push(self):
        self.stack.append({})

    def pop(self):
        self.stack.pop()

    def declare(self, info: DeclInfo) -> str:
        count = self.name_counts.get(info.name, 0) + 1
        self.name_counts[info.name] = count
        unique = info.name if count == 1 else f"{info.name}@{count}"
        self.stack[-1][info.name] = unique
        self.symbols[unique] = info
        return unique

    def declare_params(self, func: AstNode) -> list[str]:
        return [
            self.declare(p.decl)
            for p in func.children[:-1]
            if p.kind == "Decl" and p.decl is not None
        ]

    def resolve(self, name: str) -> str | None:
        """The unique name `name` refers to here, or None if it is undeclared."""
        for scope in reversed(self.stack):
            if name in scope:
                return scope[name]
        return None


# -- lowered statements -------------------------------------------------


@dataclass
class Assign:
    target: str
    expr: AstNode | None  # None = declaration without initializer
    span: Span
    decl: DeclInfo | None = None  # set on a declaration without initializer


@dataclass
class CallStmt:
    callee: str | None  # the function's name; None when callee_expr is set
    args: list[AstNode]
    target: str | None
    span: Span
    target_decl: DeclInfo | None = None
    callee_expr: AstNode | None = None  # that callee, lowered, such as `t->cb`


@dataclass
class CondBranch:
    expr: AstNode
    span: Span


@dataclass
class ReturnStmt:
    expr: AstNode | None
    span: Span


@dataclass
class BasicBlock:
    id: int
    stmts: list = field(default_factory=list)
    terminator: object | None = None  # CondBranch | ReturnStmt | None


@dataclass
class Edge:
    src: int
    dst: int
    label: str


@dataclass
class FlowGraph:
    name: str
    blocks: list[BasicBlock]
    entry: int
    edges: list[Edge]
    symbols: dict[str, DeclInfo]  # unique var name -> declared type
    params: list[str]
    loop_entries: dict[int, int] = field(default_factory=dict)  # body block -> header
    _succ: dict[int, list[Edge]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._succ = {}
        for e in self.edges:
            self._succ.setdefault(e.src, []).append(e)

    def successors(self, block_id: int) -> list[Edge]:
        return self._succ.get(block_id, [])


class _Lowerer:
    def __init__(self, func: AstNode):
        self.func = func
        self.blocks: list[BasicBlock] = []
        self.edges: list[Edge] = []
        self.scopes = Scopes()
        self.symbols = self.scopes.symbols
        self.loop_body_entries: dict[int, int] = {}
        self.temp_counter = 0
        self.current = self.new_block()

    # -- infrastructure ------------------------------------------------

    def new_block(self) -> BasicBlock:
        blk = BasicBlock(len(self.blocks))
        self.blocks.append(blk)
        return blk

    def edge(self, src: BasicBlock, dst: BasicBlock, label: str = EDGE_FALLTHROUGH):
        self.edges.append(Edge(src.id, dst.id, label))

    def emit(self, stmt):
        self.current.stmts.append(stmt)

    def fresh_temp(self) -> str:
        self.temp_counter += 1
        return f"%t{self.temp_counter}"

    def resolve(self, name: str) -> str:
        return self.scopes.resolve(name) or name

    # -- expression lowering ---------------------------------------------

    def lower_expr(self, node: AstNode) -> AstNode:
        """Rebuild the expression with calls hoisted and idents resolved."""
        kind = node.kind
        if kind == "Ident":
            resolved = self.resolve(node.name)
            if resolved != node.name:
                return AstNode("Ident", node.span, name=resolved)
            return node
        if kind == "Literal":
            return node
        if kind == "Call":
            tmp = self.fresh_temp()
            self.lower_call(node, tmp, node.span)
            return AstNode("Ident", node.span, name=tmp)
        if kind == "Unary" and node.value in ("++", "--"):
            operand = self.lower_expr(node.children[0])
            if operand.kind == "Ident":
                self.emit(
                    Assign(
                        operand.name,
                        AstNode("Unary", node.span, [operand], value=node.value),
                        node.span,
                    )
                )
                return operand
            return AstNode("Unary", node.span, [operand], value=node.value)
        if kind == "Binary" and node.value in (
            "=",
            "+=",
            "-=",
            "*=",
            "/=",
            "%=",
            "&=",
            "|=",
            "^=",
            "<<=",
            ">>=",
        ):
            lhs, rhs = node.children
            rhs_l = self.lower_assign_rhs(lhs, node.value, rhs, node.span)
            return rhs_l
        children = [self.lower_expr(c) for c in node.children]
        if children == node.children:
            return node
        return AstNode(kind, node.span, children, name=node.name, value=node.value, literal_kind=node.literal_kind)

    def lower_call(self, call: AstNode, target: str, span: Span):
        """Emit `target = call(...)`. The callee is the function's name when
        it is a name that no local or parameter holds; any other callee, such
        as `t->cb`, `pick(x)` or a local `fp` or `free`, is lowered into
        `callee_expr`. Calls in the callee or the arguments are hoisted
        first."""
        callee = call.children[0]
        if callee.kind == "Ident" and self.scopes.resolve(callee.name) is None:
            name, callee_expr = callee.name, None
        else:
            name, callee_expr = None, self.lower_expr(callee)
        args = [self.lower_expr(a) for a in call.children[1:]]
        self.emit(CallStmt(name, args, target, span, self.symbols.get(target), callee_expr))

    def lower_assign_rhs(self, lhs: AstNode, op: str, rhs: AstNode, span: Span) -> AstNode:
        if lhs.kind == "Ident":
            target = self.resolve(lhs.name)
            if op == "=":
                return self.assign_to(target, rhs, span)
            lowered_lhs = AstNode("Ident", lhs.span, name=target)
            expr = AstNode(
                "Binary", span, [lowered_lhs, self.lower_expr(rhs)], value=op[:-1]
            )
            self.emit(Assign(target, expr, span))
            return lowered_lhs
        # unsupported lvalue (deref, member, index): evaluate both sides
        self.lower_expr(lhs)
        return self.lower_expr(rhs)

    def assign_to(self, target: str, rhs: AstNode, span: Span) -> AstNode:
        """Emit target = rhs; calls become CallStmt with a result target."""
        core = rhs
        while core.kind == "Cast":
            core = core.children[0]
        if core.kind == "Call":
            self.lower_call(core, target, span)
        else:
            expr = self.lower_expr(rhs)
            self.emit(Assign(target, expr, span))
        return AstNode("Ident", span, name=target)

    # -- statement lowering ------------------------------------------------

    def lower_stmt(self, node: AstNode):
        kind = node.kind
        if kind == "Block":
            self.scopes.push()
            for child in node.children:
                self.lower_stmt(child)
            self.scopes.pop()
        elif kind == "DeclList" or kind == "Arm":  # no scope of their own
            for child in node.children:
                self.lower_stmt(child)
        elif kind == "Decl":
            if node.decl is None:
                return
            unique = self.scopes.declare(node.decl)
            if node.children:
                self.assign_to(unique, node.children[0], node.span)
            else:
                self.emit(Assign(unique, None, node.span, decl=node.decl))
        elif kind == "ExprStmt":
            if not node.children:
                return
            expr = self.lower_expr(node.children[0])
            # keep residual reads visible (hoisted temps carry none)
            if expr.kind not in ("Ident", "Literal"):
                self.emit(Assign(self.fresh_temp(), expr, node.span))
        elif kind == "If":
            # An else-if chain (a desugared switch can have hundreds of
            # arms) is lowered arm by arm in a loop, not by recursion.
            joins = []
            while True:
                then_blk = self.new_block()
                else_blk = self.new_block()
                has_else = len(node.children) > 2
                join = self.new_block() if has_else else else_blk
                self.lower_condition(node.children[0], then_blk, else_blk)
                self.current = then_blk
                self.lower_stmt(node.children[1])
                self.edge(self.current, join)
                self.current = else_blk
                if not has_else:
                    break
                joins.append(join)
                node = node.children[2]
                if node.kind != "If":
                    self.lower_stmt(node)
                    break
            for join in reversed(joins):  # innermost arm first
                self.edge(self.current, join)
                self.current = join
        elif kind == "While":
            header = self.new_block()
            self.edge(self.current, header)
            body_blk = self.new_block()
            exit_blk = self.new_block()
            self.current = header
            self.loop_body_entries[body_blk.id] = header.id
            self.lower_condition(node.children[0], body_blk, exit_blk)
            self.current = body_blk
            self.lower_stmt(node.children[1])
            self.edge(self.current, header, EDGE_BACK)
            self.current = exit_blk
        elif kind == "For":
            init, cond, step, body = node.children
            self.lower_stmt(init)
            header = self.new_block()
            self.edge(self.current, header)
            body_blk = self.new_block()
            exit_blk = self.new_block()
            self.current = header
            self.loop_body_entries[body_blk.id] = header.id
            self.lower_condition(cond, body_blk, exit_blk)
            self.current = body_blk
            self.lower_stmt(body)
            self.lower_stmt(step)
            self.edge(self.current, header, EDGE_BACK)
            self.current = exit_blk
        elif kind == "Return":
            expr = self.lower_expr(node.children[0]) if node.children else None
            self.current.terminator = ReturnStmt(expr, node.span)
            self.current = self.new_block()  # unreachable unless jumped to
        else:  # stray expressions; a childless SkippedRegion lowers to nothing
            self.lower_expr(node)

    def lower_condition(self, cond: AstNode, then_blk: BasicBlock, else_blk: BasicBlock):
        if cond.kind == "Binary" and cond.value == "&&":
            mid = self.new_block()
            self.lower_condition(cond.children[0], mid, else_blk)
            self.current = mid
            self.lower_condition(cond.children[1], then_blk, else_blk)
            return
        if cond.kind == "Binary" and cond.value == "||":
            mid = self.new_block()
            self.lower_condition(cond.children[0], then_blk, mid)
            self.current = mid
            self.lower_condition(cond.children[1], then_blk, else_blk)
            return
        if cond.kind == "Unary" and cond.value == "!":
            self.lower_condition(cond.children[0], else_blk, then_blk)
            return
        expr = self.lower_expr(cond)
        self.current.terminator = CondBranch(expr, cond.span)
        self.edge(self.current, then_blk, EDGE_TRUE)
        self.edge(self.current, else_blk, EDGE_FALSE)

    # -- driver ---------------------------------------------------------

    def build(self) -> FlowGraph:
        params = self.scopes.declare_params(self.func)
        body = self.func.children[-1]
        self.lower_stmt(body)
        return self.finish(params)

    def finish(self, params: list[str]) -> FlowGraph:
        # prune blocks unreachable from entry, renumber deterministically
        succ: dict[int, list[Edge]] = {}
        for e in self.edges:
            succ.setdefault(e.src, []).append(e)
        reachable = set()
        stack = [0]
        while stack:
            b = stack.pop()
            if b in reachable:
                continue
            reachable.add(b)
            for e in succ.get(b, []):
                stack.append(e.dst)
        keep = [b for b in self.blocks if b.id in reachable]
        remap = {b.id: i for i, b in enumerate(keep)}
        for b in keep:
            b.id = remap[b.id]
        edges = [
            Edge(remap[e.src], remap[e.dst], e.label)
            for e in self.edges
            if e.src in remap and e.dst in remap
        ]
        loop_entries = {
            remap[b]: remap[h]
            for b, h in self.loop_body_entries.items()
            if b in remap and h in remap
        }
        return FlowGraph(
            self.func.name or "<anonymous>",
            keep,
            0,
            edges,
            self.symbols,
            params,
            loop_entries,
        )


def build_cfg(func: AstNode) -> FlowGraph:
    """Lower one FunctionDef into a FlowGraph."""
    assert func.kind == "FunctionDef"
    return _Lowerer(func).build()
