"""Recursive-descent parser for the C subset the checkers care about.

The contract is recovery, not completeness: any token stream yields a
TranslationUnit. Regions the grammar cannot handle become SkippedRegion
nodes carrying a diagnostic, and parsing resumes at the next statement
or top-level boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import (
    KIND_CHAR,
    KIND_IDENT,
    KIND_INT,
    KIND_KEYWORD,
    KIND_STRING,
    KIND_WSTRING,
    Diagnostic,
    Span,
    Token,
    _new_span,
    scan,
)

MAX_EXPR_DEPTH = 150

TYPE_KEYWORDS = frozenset(
    "void char short int long float double signed unsigned bool".split()
)
DECL_QUALIFIERS = frozenset(
    "const volatile static extern register inline auto restrict".split()
)
TAG_KEYWORDS = ("struct", "union", "enum")
BUILTIN_TYPENAMES = frozenset(
    """
    FILE size_t ssize_t wchar_t mode_t off_t time_t ptrdiff_t va_list DIR
    intptr_t uintptr_t int8_t int16_t int32_t int64_t
    uint8_t uint16_t uint32_t uint64_t
    """.split()
)

# The binary operators by how tightly they bind, loosest first, as in C.
# Assignment and `?:` group to the right, the rest to the left.
_BINARY_LEVELS = [
    (",",),
    ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="),
    ("?",),
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_COMMA, _ASSIGN, _COND = 0, 1, 2
_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}
# The lowest level a right operand folds at: its operator's own level when
# that groups to the right, the next one up when it groups to the left.
_RHS_LEVEL = [level + (level not in (_ASSIGN, _COND)) for level in range(len(_BINARY_LEVELS))]
_PREFIX_OPS = frozenset(["++", "--", "&", "*", "+", "-", "!", "~"])
_POSTFIX_OPS = frozenset(["(", "[", ".", "->", "++", "--"])
_LITERAL_KINDS = frozenset([KIND_INT, KIND_STRING, KIND_WSTRING, KIND_CHAR])


@dataclass(slots=True)
class DeclInfo:
    name: str
    base: str  # declared base type text, e.g. "char", "FILE"
    ptr_depth: int = 0
    is_array: bool = False
    has_init: bool = False
    is_param: bool = False

    @property
    def pointerish(self) -> bool:
        return self.ptr_depth > 0 or self.is_array


@dataclass(slots=True)
class AstNode:
    kind: str
    span: Span
    children: list["AstNode"] = field(default_factory=list)
    name: str | None = None  # Ident / FunctionDef / Call convenience
    value: str | None = None  # Literal lexeme, Binary/Unary operator, Cast type
    decl: DeclInfo | None = None
    literal_kind: str | None = None  # token kind for Literal nodes

    def walk(self):
        """Pre-order over this subtree, without recursion."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass
class ParseResult:
    unit: AstNode
    diagnostics: list[Diagnostic]
    includes: list
    tokens: list[Token]


class _ParseError(Exception):
    pass


def _join_span(a: Span, b: Span) -> Span:
    return _new_span((a.offset, a.line, a.col, max(b.offset + b.length - a.offset, a.length)))


_EMPTY_SPAN = Span(0, 1, 1, 0)

# Follows the last token, so the cursor reads a token at every position up
# to the end without a bounds check. It matches no lexeme or kind the
# grammar asks for, and lookaheads stop at it.
_END = Token("end-of-input", "", _EMPTY_SPAN)


class Parser:
    def __init__(self, tokens: list[Token]):
        self.n = len(tokens)
        self.toks = [*tokens, _END]
        self.pos = 0  # at most n: the parser never steps past _END
        self.diags: list[Diagnostic] = []
        self.typenames: set[str] = set(BUILTIN_TYPENAMES)
        self.stmt_depth = 0

    # -- token helpers ------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def at(self, lexeme: str) -> bool:
        return self.toks[self.pos].lexeme == lexeme

    def at_end(self) -> bool:
        return self.pos == self.n

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, lexeme: str) -> Token:
        t = self.toks[self.pos]
        if t.lexeme == lexeme:
            self.pos += 1
            return t
        raise _ParseError(f"expected {lexeme!r}")

    def span_from(self, start: int) -> Span:
        if start >= self.n:
            last = self.toks[self.n - 1].span if self.n else _EMPTY_SPAN
            return _new_span((last.offset + last.length, last.line, last.col + last.length, 0))
        first = self.toks[start].span
        if self.pos <= start:
            return _new_span((first.offset, first.line, first.col, 0))
        return _join_span(first, self.toks[self.pos - 1].span)

    # -- type recognition ---------------------------------------------

    def is_type_token(self, t: Token) -> bool:
        if t.kind == KIND_KEYWORD:
            return t.lexeme in TYPE_KEYWORDS or t.lexeme in DECL_QUALIFIERS or t.lexeme in TAG_KEYWORDS
        return t.kind == KIND_IDENT and t.lexeme in self.typenames

    def starts_decl(self) -> bool:
        t = self.peek()
        if self.is_type_token(t):
            return True
        # Heuristic: unknown identifier followed by '*'+ identifier.
        return t.kind == KIND_IDENT and self._ident_type_heuristic()

    # -- entry point ----------------------------------------------------

    def parse_translation_unit(self) -> AstNode:
        children = []
        while not self.at_end():
            start = self.pos
            if self.at(";"):
                self.advance()
                continue
            try:
                node = self.parse_external()
            except _ParseError as err:
                node = self.recover(start, str(err), top_level=True)
            if node is not None:
                children.append(node)
            if self.pos == start:  # guarantee forward progress
                self.advance()
        span = (
            _join_span(self.toks[0].span, self.toks[self.n - 1].span)
            if self.n
            else _EMPTY_SPAN
        )
        return AstNode("TranslationUnit", span, children)

    def recover(self, start: int, message: str, top_level: bool = False) -> AstNode:
        """Skip to the next statement boundary, emitting a SkippedRegion."""
        toks = self.toks
        n = self.n
        i = max(self.pos, start)
        depth = 0
        while i < n:
            lx = toks[i].lexeme
            if (
                top_level
                and depth == 0
                and i > start
                and (lx in self.typenames or lx in TYPE_KEYWORDS)
            ):
                break  # likely the start of the next declaration
            if lx == "{":
                depth += 1
            elif lx == "}":
                if depth == 0:
                    if top_level:
                        i += 1
                    break
                depth -= 1
                if depth == 0 and top_level:
                    i += 1
                    break
            elif lx == ";" and depth == 0:
                i += 1
                break
            i += 1
        if i == start and i < n:
            i += 1
        self.pos = i
        span = self.span_from(start)
        self.diags.append(Diagnostic(span, message))
        return AstNode("SkippedRegion", span, value=message)

    # -- declarations ----------------------------------------------------

    def parse_specifiers(self) -> str:
        """Consume decl-specifier tokens, returning the base type text."""
        parts = []
        consumed = 0
        while True:
            t = self.peek()
            if t.kind == KIND_KEYWORD and t.lexeme in DECL_QUALIFIERS:
                self.advance()
                consumed += 1
                continue
            if t.kind == KIND_KEYWORD and t.lexeme in TYPE_KEYWORDS:
                parts.append(self.advance().lexeme)
                consumed += 1
                continue
            if t.kind == KIND_KEYWORD and t.lexeme in TAG_KEYWORDS:
                self.advance()
                consumed += 1
                tag = self.peek()
                if tag.kind == KIND_IDENT:
                    parts.append(self.advance().lexeme)
                else:
                    parts.append(t.lexeme)
                continue
            if (
                not parts
                and t.kind == KIND_IDENT
                and (t.lexeme in self.typenames or self._ident_type_heuristic())
            ):
                parts.append(self.advance().lexeme)
                consumed += 1
                continue
            break
        if consumed == 0:
            raise _ParseError("expected declaration specifiers")
        return " ".join(parts) if parts else "int"

    def _ident_type_heuristic(self) -> bool:
        i = 1
        saw_star = False
        while True:
            nxt = self.peek(i)
            if nxt.lexeme == "*":
                saw_star = True
                i += 1
                continue
            return saw_star and nxt.kind == KIND_IDENT

    def parse_declarator(
        self, base: str, is_param: bool = False, depth: int = 0, ptr: int = 0
    ) -> tuple[DeclInfo, list[AstNode] | None]:
        """C's declarator: stars, then a name or a parenthesized declarator,
        then any `[...]` bounds and a parameter list. Returns the name's
        DeclInfo, and the parameters when a list follows the name, as in
        `f(int a)` or `(*get(void))(int)`. The stars and bounds at the
        name's level make the type; the bounds and parameter lists of the
        levels around it, such as the `(int)` of `(*fp)(int)`, are skipped.
        `ptr` counts the stars the caller read; `depth` the parentheses
        this declarator is nested in."""
        if depth > MAX_EXPR_DEPTH:
            raise _ParseError("declarator too deeply nested")
        ptr += self._stars()
        if self.at("(") and not self._params_next():
            self.advance()
            info, params = self.parse_declarator(base, is_param, depth + 1)
            self.expect(")")
            if self.at("("):
                self.skip_balanced("(", ")")
            self._skip_bounds()
            return info, params
        if self.peek().kind != KIND_IDENT:
            raise _ParseError("expected declarator name")
        name = self.advance().lexeme
        is_array = self._skip_bounds()
        params = self.parse_params(depth + 1) if self.at("(") else None
        return DeclInfo(name, base, ptr, is_array, is_param=is_param), params

    def _params_next(self) -> bool:
        """At a `(`: a parameter list starts here when `)`, `...` or a type
        follows, as in the abstract `(int)`; otherwise a nested declarator."""
        nxt = self.peek(1)
        return nxt.lexeme in (")", "...") or self.is_type_token(nxt)

    def _stars(self) -> int:
        ptr = 0
        while self.at("*") or self.at("const"):
            if self.advance().lexeme == "*":
                ptr += 1
        return ptr

    def _skip_bounds(self) -> bool:
        """Skip any `[...]` groups; whether there were some."""
        found = False
        while self.at("["):
            found = True
            self.advance()
            self.skip_balanced_from_open("[", "]")
        return found

    def parse_declaration(self, top_level: bool = False) -> AstNode:
        """Specifiers and any struct/union/enum body, then `;` or
        declarators with initializers up to `;`. At file scope, a first
        declarator with a parameter list followed by `{` makes a FunctionDef
        instead. A `static` or `extern` declarator counts as initialized:
        such storage starts zeroed or is set elsewhere."""
        start = self.pos
        if self.at("typedef"):
            return self.parse_typedef(start)
        base = self.parse_specifiers()
        stored = any(t.lexeme in ("static", "extern") for t in self.toks[start:self.pos])
        if self.at("{"):  # a tag body, skipped opaquely
            self.skip_balanced("{", "}")
        ptr = self._stars()
        if self.at(";"):  # e.g. `struct point;` or bare specifier
            self.advance()
            return AstNode("Decl", self.span_from(start))
        info, params = self.parse_declarator(base, ptr=ptr)
        if top_level and params is not None and self.at("{"):
            body = self.parse_block()
            return AstNode("FunctionDef", self.span_from(start), params + [body], name=info.name, value=base)
        decls = []
        while True:
            init = None
            if self.at("="):
                self.advance()
                init = self.parse_expression(0, _ASSIGN)
            info.has_init = init is not None or stored
            decls.append((info, params, init))
            if not self.at(","):
                break
            self.advance()
            info, params = self.parse_declarator(base)
        self.expect(";")
        span = self.span_from(start)
        # `int a, b;` declares both names in the enclosing scope; a
        # prototype, such as `int g(int);`, declares no variable
        nodes = [
            AstNode("Decl", span, [] if init is None else [init], name=info.name,
                    decl=info if params is None else None)
            for info, params, init in decls
        ]
        return nodes[0] if len(nodes) == 1 else AstNode("DeclList", span, nodes)

    def parse_typedef(self, start: int) -> AstNode:
        self.expect("typedef")
        last_ident = None
        while not self.at_end() and not self.at(";"):
            t = self.advance()
            if t.lexeme == "{":
                self.skip_balanced_from_open()
            elif t.kind == KIND_IDENT:
                last_ident = t.lexeme
        if self.at(";"):
            self.advance()
        if last_ident:
            self.typenames.add(last_ident)
        return AstNode("Decl", self.span_from(start))

    def skip_balanced(self, open_lx: str, close_lx: str):
        self.expect(open_lx)
        self.skip_balanced_from_open(open_lx, close_lx)

    def skip_balanced_from_open(self, open_lx: str = "{", close_lx: str = "}"):
        toks = self.toks
        n = self.n
        i = self.pos
        depth = 1
        while i < n and depth > 0:
            lx = toks[i].lexeme
            i += 1
            if lx == open_lx:
                depth += 1
            elif lx == close_lx:
                depth -= 1
        self.pos = i

    # -- top level ------------------------------------------------------

    def parse_external(self) -> AstNode:
        t = self.peek()
        if t.lexeme in ("class", "template", "namespace", "using"):
            raise _ParseError(f"unsupported C++ construct {t.lexeme!r}")
        return self.parse_declaration(top_level=True)

    def parse_params(self, depth: int) -> list[AstNode]:
        self.expect("(")
        params: list[AstNode] = []
        if self.at(")"):
            self.advance()
            return params
        while True:
            start = self.pos
            if self.at("..."):
                self.advance()
            elif self.at("void") and self.peek(1).lexeme == ")":
                self.advance()
            else:
                try:
                    base = self.parse_specifiers()
                    info, _ = self.parse_declarator(base, True, depth)
                    params.append(
                        AstNode(
                            "Decl",
                            self.span_from(start),
                            name=info.name,
                            decl=info,
                        )
                    )
                except _ParseError:
                    # abstract, unparsable or too deeply nested parameter:
                    # skip to , or ) from its start, so parentheses it
                    # opened are balanced
                    self.pos = start
                    nest = 0
                    while not self.at_end():
                        lx = self.peek().lexeme
                        if lx == "(":
                            nest += 1
                        elif lx == ")":
                            if nest == 0:
                                break
                            nest -= 1
                        elif lx == "," and nest == 0:
                            break
                        self.advance()
            if self.at(","):
                self.advance()
                continue
            break
        self.expect(")")
        return params

    # -- statements -------------------------------------------------------

    def parse_block(self) -> AstNode:
        start = self.pos
        self.expect("{")
        stmts = []
        toks = self.toks
        while self.pos < self.n and toks[self.pos].lexeme != "}":
            before = self.pos
            stmts.append(self.parse_statement())
            if self.pos == before:
                self.advance()
        if self.at("}"):
            self.advance()
        else:
            self.diags.append(
                Diagnostic(self.span_from(start), "unterminated block")
            )
        return AstNode("Block", self.span_from(start), stmts)

    def parse_statement(self) -> AstNode:
        start = self.pos
        self.stmt_depth += 1
        try:
            if self.stmt_depth > MAX_EXPR_DEPTH:
                raise _ParseError("statements too deeply nested")
            return self._parse_statement_inner(start)
        except _ParseError as err:
            self.pos = max(self.pos, start)
            return self.recover(start, str(err))
        finally:
            self.stmt_depth -= 1

    def _parse_statement_inner(self, start: int) -> AstNode:
        if self.at_end():
            raise _ParseError("unexpected end of input")
        lx = self.peek().lexeme
        if lx == "{":
            return self.parse_block()
        if lx == ";":
            self.advance()
            return AstNode("ExprStmt", self.span_from(start))
        if lx == "if":
            return self.parse_if(start)
        if lx == "while":
            return self.parse_while(start)
        if lx == "for":
            return self.parse_for(start)
        if lx == "return":
            self.advance()
            expr = None
            if not self.at(";"):
                expr = self.parse_expression(0)
            self.expect(";")
            return AstNode(
                "Return", self.span_from(start), [expr] if expr else []
            )
        if lx in ("break", "continue"):
            self.advance()
            self.expect(";")
            return AstNode("ExprStmt", self.span_from(start))
        if lx == "goto":
            self.advance()
            while not self.at_end() and not self.at(";"):
                self.advance()
            if self.at(";"):
                self.advance()
            span = self.span_from(start)
            self.diags.append(Diagnostic(span, "goto is not modeled"))
            return AstNode("ExprStmt", span)
        if lx == "switch":
            return self.parse_switch(start)
        if lx in ("case", "default"):
            # stray labels outside switch lowering: consume 'case X:' prefix
            self.advance()
            while not self.at_end() and not self.at(":"):
                self.advance()
            if self.at(":"):
                self.advance()
            return AstNode("ExprStmt", self.span_from(start))
        if lx in ("class", "template", "namespace", "do", "using"):
            raise _ParseError(f"unsupported construct {lx!r}")
        if lx == "typedef" or self.starts_decl():
            return self.parse_declaration()
        expr = self.parse_expression(0)
        self.expect(";")
        return AstNode("ExprStmt", self.span_from(start), [expr])

    def parse_paren_condition(self) -> AstNode:
        self.expect("(")
        cond = self.parse_expression(0)
        self.expect(")")
        return cond

    def parse_if(self, start: int) -> AstNode:
        self.expect("if")
        cond = self.parse_paren_condition()
        then = self.parse_statement()
        children = [cond, then]
        if self.at("else"):
            self.advance()
            children.append(self.parse_statement())
        return AstNode("If", self.span_from(start), children)

    def parse_while(self, start: int) -> AstNode:
        self.expect("while")
        cond = self.parse_paren_condition()
        body = self.parse_statement()
        return AstNode("While", self.span_from(start), [cond, body])

    def parse_for(self, start: int) -> AstNode:
        self.expect("for")
        self.expect("(")
        if self.at(";"):
            self.advance()
            init = AstNode("ExprStmt", self.span_from(start))
        elif self.starts_decl():
            init = self.parse_declaration()
        else:
            e = self.parse_expression(0)
            self.expect(";")
            init = AstNode("ExprStmt", e.span, [e])
        if self.at(";"):
            cond = AstNode("Literal", self.span_from(start), value="1", literal_kind=KIND_INT)
            self.advance()
        else:
            cond = self.parse_expression(0)
            self.expect(";")
        if self.at(")"):
            step = AstNode("ExprStmt", self.span_from(start))
            self.advance()
        else:
            e = self.parse_expression(0)
            self.expect(")")
            step = AstNode("ExprStmt", e.span, [e])
        body = self.parse_statement()
        return AstNode("For", self.span_from(start), [init, cond, step, body])

    def parse_switch(self, start: int) -> AstNode:
        """Lower `switch` into an if/else-if chain over `==` comparisons,
        inside one Block: as in C, the whole body is one scope. Each arm's
        statements are an `Arm`, which opens no scope of its own, so a name
        declared in one arm is in scope in the arms after it. The scrutinee
        is evaluated once, into a `%switch` declared at the head of the
        Block, and each arm compares that name; no C source can spell it."""
        self.expect("switch")
        scrut = self.parse_paren_condition()
        hidden = AstNode(
            "Decl", scrut.span, [scrut], name="%switch", decl=DeclInfo("%switch", "int", has_init=True)
        )
        subject = AstNode("Ident", scrut.span, name="%switch")
        self.expect("{")
        arms: list[tuple[AstNode | None, list[AstNode]]] = []
        current: list[AstNode] | None = None
        while not self.at_end() and not self.at("}"):
            if self.at("case"):
                self.advance()
                label = self.parse_expression(0)
                self.expect(":")
                current = []
                arms.append((label, current))
                continue
            if self.at("default"):
                self.advance()
                self.expect(":")
                current = []
                arms.append((None, current))
                continue
            if self.at("break"):
                self.advance()
                if self.at(";"):
                    self.advance()
                continue
            stmt = self.parse_statement()
            if current is None:
                current = []
                arms.append((None, current))
            current.append(stmt)
        if self.at("}"):
            self.advance()
        span = self.span_from(start)
        node: AstNode | None = None
        for label, stmts in reversed(arms):
            body = AstNode("Arm", span, stmts)
            if label is None:
                node = body if node is None else AstNode(
                    "If",
                    span,
                    [AstNode("Literal", span, value="1", literal_kind=KIND_INT), body, node],
                )
            else:
                cond = AstNode("Binary", span, [subject, label], value="==")
                children = [cond, body] + ([node] if node is not None else [])
                node = AstNode("If", span, children)
        return AstNode("Block", span, [hidden] if node is None else [hidden, node])

    # -- expressions --------------------------------------------------------
    #
    # `depth` counts the frames an expression opens, so MAX_EXPR_DEPTH
    # bounds the recursion here and the depth of the tree that later stages
    # recurse over: one unit per prefix operator, cast and chained operator,
    # four per parenthesis (expression, unary, postfix, primary).

    @staticmethod
    def _chain(depth: int) -> int:
        """One more operator in a chain: a chain nests its tree as deeply
        as recursion would, so it counts toward the limit."""
        depth += 1
        if depth > MAX_EXPR_DEPTH:
            raise _ParseError("expression too deeply nested")
        return depth

    def parse_expression(self, depth: int, min_level: int = _COMMA) -> AstNode:
        """An expression of the binary operators at `min_level` or above:
        `_COMMA` for a whole expression, `_ASSIGN` where a comma ends it."""
        if depth > MAX_EXPR_DEPTH:
            raise _ParseError("expression too deeply nested")
        return self._fold(self.parse_unary(depth + 1), min_level, depth)

    def _fold(self, lhs: AstNode, min_level: int, depth: int) -> AstNode:
        """Precedence climbing: fold onto `lhs`, left to right, each binary
        operator at `min_level` or above. A right operand is one unary
        expression, extended by recursion only when the operator after it
        is at this operator's `_RHS_LEVEL` or above."""
        toks = self.toks
        while True:
            op = toks[self.pos].lexeme
            level = _LEVEL.get(op, -1)
            if level < min_level:
                return lhs
            depth = self._chain(depth)
            self.pos += 1
            if level == _COND:
                mid = self.parse_expression(depth + 1, _COMMA)
                self.expect(":")
            rhs = self.parse_unary(depth + 1)
            rhs_level = _RHS_LEVEL[level]
            if _LEVEL.get(toks[self.pos].lexeme, -1) >= rhs_level:
                # its first fold is a chained operator and takes its own unit
                rhs = self._fold(rhs, rhs_level, depth)
            span = _join_span(lhs.span, rhs.span)
            if level == _COND:
                lhs = AstNode("Binary", span, [lhs, mid, rhs], value="?:")
            else:
                lhs = AstNode("Binary", span, [lhs, rhs], value=op)

    def _looks_like_cast(self) -> int:
        """At a '(': if a cast starts here, return the index past ')'; else 0."""
        if not self.is_type_token(self.peek(1)):
            return 0
        i = 1
        while True:
            t = self.peek(i)
            if t.lexeme == ")":
                nxt = self.peek(i + 1)
                if (
                    nxt.kind == KIND_IDENT
                    or nxt.kind in _LITERAL_KINDS
                    or nxt.lexeme in ("(", "*", "&", "!", "~", "-", "+", "++", "--", "sizeof")
                ):
                    return i + 1
                return 0
            if t.lexeme == "*" or t.kind in (KIND_KEYWORD, KIND_IDENT):
                i += 1
                continue
            return 0

    def parse_unary(self, depth: int) -> AstNode:
        if depth > MAX_EXPR_DEPTH:
            raise _ParseError("expression too deeply nested")
        start = self.pos
        if start == self.n:
            raise _ParseError("expected expression")
        lx = self.toks[start].lexeme
        if lx in _PREFIX_OPS:
            self.pos += 1
            operand = self.parse_unary(depth + 1)
            return AstNode("Unary", self.span_from(start), [operand], value=lx)
        if lx == "sizeof":
            self.pos += 1
            if self.at("("):
                self.skip_balanced("(", ")")
                return AstNode("Literal", self.span_from(start), value="sizeof", literal_kind=KIND_INT)
            operand = self.parse_unary(depth + 1)
            return AstNode("Unary", self.span_from(start), [operand], value="sizeof")
        if lx == "(":
            cast_end = self._looks_like_cast()
            if cast_end:
                type_toks = self.toks[start + 1 : start + cast_end - 1]
                self.pos = start + cast_end
                operand = self.parse_unary(depth + 1)
                return AstNode(
                    "Cast", self.span_from(start), [operand], value=" ".join(t.lexeme for t in type_toks)
                )
        return self.parse_postfix(depth + 1)

    def parse_postfix(self, depth: int) -> AstNode:
        start = self.pos
        expr = self.parse_primary(depth + 1)
        toks = self.toks
        while True:
            lx = toks[self.pos].lexeme
            if lx not in _POSTFIX_OPS:
                return expr
            depth = self._chain(depth)
            if lx == "(":
                args = self.parse_call_args(depth + 1)
                callee = expr.name if expr.kind == "Ident" else None
                expr = AstNode(
                    "Call", self.span_from(start), [expr] + args, name=callee
                )
            elif lx == "[":
                self.pos += 1
                idx = self.parse_expression(depth + 1)
                self.expect("]")
                expr = AstNode(
                    "Binary", self.span_from(start), [expr, idx], value="[]"
                )
            elif lx == "." or lx == "->":
                member = toks[self.pos + 1]
                if member.kind != KIND_IDENT:
                    raise _ParseError("expected member name")
                self.pos += 2
                expr = AstNode(
                    "Binary",
                    self.span_from(start),
                    [expr, AstNode("Ident", member.span, name=member.lexeme)],
                    value=lx,
                )
            else:  # ++ or --
                self.pos += 1
                expr = AstNode(
                    "Unary", self.span_from(start), [expr], value=lx
                )

    def parse_call_args(self, depth: int) -> list[AstNode]:
        self.expect("(")
        args = []
        if self.at(")"):
            self.pos += 1
            return args
        while True:
            args.append(self.parse_expression(depth + 1, _ASSIGN))
            if self.at(","):
                self.pos += 1
                continue
            break
        self.expect(")")
        return args

    def parse_primary(self, depth: int) -> AstNode:
        t = self.toks[self.pos]
        if t.kind == KIND_IDENT:
            self.pos += 1
            if t.lexeme == "NULL":
                return AstNode("Literal", t.span, value="NULL", literal_kind="null")
            return AstNode("Ident", t.span, name=t.lexeme)
        if t.kind in _LITERAL_KINDS:
            self.pos += 1
            return AstNode("Literal", t.span, value=t.lexeme, literal_kind=t.kind)
        if t.lexeme == "(":
            self.pos += 1
            expr = self.parse_expression(depth + 1)
            self.expect(")")
            return expr
        if t.lexeme == "{":
            # brace initializer: consume opaquely
            start = self.pos
            self.skip_balanced("{", "}")
            return AstNode("Literal", self.span_from(start), value="{...}", literal_kind=KIND_INT)
        raise _ParseError(f"unexpected token {ascii(t.lexeme)}")


def parse_tokens(tokens: list[Token]) -> tuple[AstNode, list[Diagnostic]]:
    parser = Parser(tokens)
    unit = parser.parse_translation_unit()
    return unit, parser.diags


def parse_source(source) -> ParseResult:
    """Scan (comments and directives dropped, includes read) and parse.
    Never raises on any input."""
    tokens, lex_diags, includes = scan(source)
    unit, parse_diags = parse_tokens(tokens)
    return ParseResult(unit, lex_diags + parse_diags, includes, tokens)
