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
    KIND_PUNCT,
    KIND_STRING,
    KIND_WSTRING,
    Diagnostic,
    Span,
    Token,
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


@dataclass
class DeclInfo:
    name: str
    base: str  # declared base type text, e.g. "char", "FILE"
    ptr_depth: int = 0
    is_array: bool = False
    has_init: bool = False
    is_param: bool = False


@dataclass
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
    return Span(a.offset, a.line, a.col, max(b.end - a.offset, a.length))


_EMPTY_SPAN = Span(0, 1, 1, 0)


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.typenames: set[str] = set(BUILTIN_TYPENAMES)
        self.stmt_depth = 0

    # -- token helpers ------------------------------------------------

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def at(self, lexeme: str) -> bool:
        t = self.peek()
        return t is not None and t.lexeme == lexeme

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, lexeme: str) -> Token:
        if self.at(lexeme):
            return self.advance()
        raise _ParseError(f"expected {lexeme!r}")

    def span_from(self, start: int) -> Span:
        if start >= len(self.toks):
            last = self.toks[-1].span if self.toks else _EMPTY_SPAN
            return Span(last.end, last.line, last.col + last.length, 0)
        first = self.toks[start].span
        end_idx = min(self.pos, len(self.toks)) - 1
        if end_idx < start:
            return Span(first.offset, first.line, first.col, 0)
        return _join_span(first, self.toks[end_idx].span)

    # -- type recognition ---------------------------------------------

    def is_type_token(self, t: Token | None) -> bool:
        if t is None:
            return False
        if t.kind == KIND_KEYWORD:
            return t.lexeme in TYPE_KEYWORDS or t.lexeme in DECL_QUALIFIERS or t.lexeme in TAG_KEYWORDS
        return t.kind == KIND_IDENT and t.lexeme in self.typenames

    def starts_decl(self) -> bool:
        t = self.peek()
        if t is None:
            return False
        if self.is_type_token(t):
            return True
        # Heuristic: unknown identifier followed by '*'+ identifier.
        return t.kind == KIND_IDENT and self._ident_type_heuristic()

    # -- entry point ----------------------------------------------------

    def parse_translation_unit(self) -> AstNode:
        children = []
        while self.peek() is not None:
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
            _join_span(self.toks[0].span, self.toks[-1].span)
            if self.toks
            else _EMPTY_SPAN
        )
        return AstNode("TranslationUnit", span, children)

    def recover(self, start: int, message: str, top_level: bool = False) -> AstNode:
        """Skip to the next statement boundary, emitting a SkippedRegion."""
        toks = self.toks
        n = len(toks)
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
            if t is None:
                break
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
                if tag is not None and tag.kind == KIND_IDENT:
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
            if nxt is None:
                return False
            if nxt.lexeme == "*":
                saw_star = True
                i += 1
                continue
            return saw_star and nxt.kind == KIND_IDENT

    def parse_declarator(self, base: str, is_param: bool = False) -> DeclInfo:
        ptr = 0
        while self.at("*") or self.at("const"):
            if self.advance().lexeme == "*":
                ptr += 1
        t = self.peek()
        if t is None or t.kind != KIND_IDENT:
            raise _ParseError("expected declarator name")
        name = self.advance().lexeme
        is_array = False
        while self.at("["):
            is_array = True
            self.advance()
            depth = 1
            while self.peek() is not None and depth > 0:
                lx = self.advance().lexeme
                if lx == "[":
                    depth += 1
                elif lx == "]":
                    depth -= 1
        return DeclInfo(name, base, ptr, is_array, is_param=is_param)

    def parse_decl_statement(self) -> AstNode:
        start = self.pos
        if self.at("typedef"):
            return self.parse_typedef(start)
        base = self.parse_specifiers()
        if self.at(";"):  # e.g. `struct point;` or bare specifier
            self.advance()
            return AstNode("Decl", self.span_from(start))
        if self.at("{"):
            # struct/union/enum body: skip it opaquely.
            self.skip_balanced("{", "}")
            while self.peek() is not None and not self.at(";"):
                self.advance()
            if self.at(";"):
                self.advance()
            return AstNode("Decl", self.span_from(start))
        decls = []
        while True:
            info = self.parse_declarator(base)
            init = None
            if self.at("="):
                self.advance()
                init = self.parse_assignment(0)
                info.has_init = True
            node = AstNode(
                "Decl",
                self.span_from(start),
                [init] if init is not None else [],
                name=info.name,
                decl=info,
            )
            decls.append(node)
            if self.at(","):
                self.advance()
                continue
            break
        self.expect(";")
        span = self.span_from(start)
        for d in decls:
            d.span = span
        if len(decls) == 1:
            return decls[0]
        # `int a, b;` declares both names in the enclosing scope
        return AstNode("DeclList", span, decls)

    def parse_typedef(self, start: int) -> AstNode:
        self.expect("typedef")
        last_ident = None
        while self.peek() is not None and not self.at(";"):
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
        n = len(toks)
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
        start = self.pos
        t = self.peek()
        if t is not None and t.lexeme in ("class", "template", "namespace", "using"):
            raise _ParseError(f"unsupported C++ construct {t.lexeme!r}")
        if self.at("typedef"):
            return self.parse_typedef(start)
        base = self.parse_specifiers()
        ptr = 0
        while self.at("*"):
            self.advance()
            ptr += 1
        t = self.peek()
        if t is None or t.kind != KIND_IDENT:
            if self.at("{"):  # struct body
                self.skip_balanced("{", "}")
                if self.at(";"):
                    self.advance()
                return AstNode("Decl", self.span_from(start))
            if self.at(";"):
                self.advance()
                return AstNode("Decl", self.span_from(start))
            raise _ParseError("expected top-level declarator")
        name = self.advance().lexeme
        if self.at("("):
            params = self.parse_params()
            if self.at("{"):
                body = self.parse_block()
                span = self.span_from(start)
                fn = AstNode(
                    "FunctionDef", span, params + [body], name=name, value=base
                )
                return fn
            if self.at(";"):
                self.advance()
                return AstNode("Decl", self.span_from(start), name=name)
            raise _ParseError("expected function body or ';'")
        # plain variable decl at top level; rewind and reuse the statement path
        self.pos = start
        return self.parse_decl_statement()

    def parse_params(self) -> list[AstNode]:
        self.expect("(")
        params: list[AstNode] = []
        if self.at(")"):
            self.advance()
            return params
        while True:
            start = self.pos
            if self.at("..."):
                self.advance()
            elif self.at("void") and self.peek(1) is not None and self.peek(1).lexeme == ")":
                self.advance()
            else:
                try:
                    base = self.parse_specifiers()
                    info = self.parse_declarator(base, is_param=True)
                    params.append(
                        AstNode(
                            "Decl",
                            self.span_from(start),
                            name=info.name,
                            decl=info,
                        )
                    )
                except _ParseError:
                    # abstract or unparsable parameter: skip to , or )
                    depth = 0
                    while self.peek() is not None:
                        lx = self.peek().lexeme
                        if lx == "(":
                            depth += 1
                        elif lx == ")":
                            if depth == 0:
                                break
                            depth -= 1
                        elif lx == "," and depth == 0:
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
        while self.peek() is not None and not self.at("}"):
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
        t = self.peek()
        if t is None:
            raise _ParseError("unexpected end of input")
        lx = t.lexeme
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
            while self.peek() is not None and not self.at(";"):
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
            while self.peek() is not None and not self.at(":"):
                self.advance()
            if self.at(":"):
                self.advance()
            return AstNode("ExprStmt", self.span_from(start))
        if lx in ("class", "template", "namespace", "do", "using"):
            raise _ParseError(f"unsupported construct {lx!r}")
        if lx == "typedef":
            return self.parse_typedef(start)
        if self.starts_decl():
            return self.parse_decl_statement()
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
            init = self.parse_decl_statement()
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
        """Lower `switch` into an if/else-if chain over `==` comparisons."""
        self.expect("switch")
        scrut = self.parse_paren_condition()
        self.expect("{")
        arms: list[tuple[AstNode | None, list[AstNode]]] = []
        current: list[AstNode] | None = None
        while self.peek() is not None and not self.at("}"):
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
            body = AstNode("Block", span, stmts)
            if label is None:
                node = body if node is None else AstNode(
                    "If",
                    span,
                    [AstNode("Literal", span, value="1", literal_kind=KIND_INT), body, node],
                )
            else:
                cond = AstNode("Binary", span, [scrut, label], value="==")
                children = [cond, body] + ([node] if node is not None else [])
                node = AstNode("If", span, children)
        if node is None:
            node = AstNode("ExprStmt", span)
        return node

    # -- expressions --------------------------------------------------------

    _PRECEDENCE = [
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

    _ASSIGN_OPS = frozenset(
        ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="]
    )

    def parse_expression(self, depth: int) -> AstNode:
        if depth > MAX_EXPR_DEPTH:
            raise _ParseError("expression too deeply nested")
        expr = self.parse_assignment(depth + 1)
        while self.at(","):
            self.advance()
            rhs = self.parse_assignment(depth + 1)
            expr = AstNode("Binary", _join_span(expr.span, rhs.span), [expr, rhs], value=",")
        return expr

    def parse_assignment(self, depth: int) -> AstNode:
        if depth > MAX_EXPR_DEPTH:
            raise _ParseError("expression too deeply nested")
        lhs = self.parse_conditional(depth + 1)
        t = self.peek()
        if t is not None and t.lexeme in self._ASSIGN_OPS:
            op = self.advance().lexeme
            rhs = self.parse_assignment(depth + 1)
            return AstNode("Binary", _join_span(lhs.span, rhs.span), [lhs, rhs], value=op)
        return lhs

    def parse_conditional(self, depth: int) -> AstNode:
        cond = self.parse_binary(0, depth + 1)
        if self.at("?"):
            self.advance()
            a = self.parse_assignment(depth + 1)
            self.expect(":")
            b = self.parse_conditional(depth + 1)
            return AstNode("Binary", _join_span(cond.span, b.span), [cond, a, b], value="?:")
        return cond

    def parse_binary(self, level: int, depth: int) -> AstNode:
        if depth > MAX_EXPR_DEPTH:
            raise _ParseError("expression too deeply nested")
        if level >= len(self._PRECEDENCE):
            return self.parse_unary(depth + 1)
        lhs = self.parse_binary(level + 1, depth + 1)
        ops = self._PRECEDENCE[level]
        while True:
            t = self.peek()
            if t is None or t.lexeme not in ops:
                return lhs
            op = self.advance().lexeme
            rhs = self.parse_binary(level + 1, depth + 1)
            lhs = AstNode("Binary", _join_span(lhs.span, rhs.span), [lhs, rhs], value=op)

    def _looks_like_cast(self) -> int:
        """If a cast starts at '(' here, return index past ')'; else 0."""
        if not self.at("("):
            return 0
        if not self.is_type_token(self.peek(1)):
            return 0
        i = 1
        while True:
            t = self.peek(i)
            if t is None:
                return 0
            if t.lexeme == ")":
                nxt = self.peek(i + 1)
                if nxt is None:
                    return 0
                if nxt.kind in (KIND_IDENT, KIND_INT, KIND_STRING, KIND_WSTRING, KIND_CHAR) or nxt.lexeme in ("(", "*", "&", "!", "~", "-", "+"):
                    return i + 1
                return 0
            if t.lexeme == "*" or t.kind in (KIND_KEYWORD, KIND_IDENT):
                i += 1
                continue
            return 0

    _PREFIX_OPS = frozenset(["++", "--", "&", "*", "+", "-", "!", "~"])

    def parse_unary(self, depth: int) -> AstNode:
        if depth > MAX_EXPR_DEPTH:
            raise _ParseError("expression too deeply nested")
        start = self.pos
        t = self.peek()
        if t is None:
            raise _ParseError("expected expression")
        if t.lexeme in self._PREFIX_OPS:
            op = self.advance().lexeme
            operand = self.parse_unary(depth + 1)
            return AstNode("Unary", self.span_from(start), [operand], value=op)
        if t.lexeme == "sizeof":
            self.advance()
            if self.at("("):
                self.skip_balanced("(", ")")
                return AstNode("Literal", self.span_from(start), value="sizeof", literal_kind=KIND_INT)
            operand = self.parse_unary(depth + 1)
            return AstNode("Unary", self.span_from(start), [operand], value="sizeof")
        cast_end = self._looks_like_cast()
        if cast_end:
            self.advance()  # (
            type_toks = []
            while not self.at(")"):
                type_toks.append(self.advance().lexeme)
            self.advance()  # )
            operand = self.parse_unary(depth + 1)
            return AstNode(
                "Cast", self.span_from(start), [operand], value=" ".join(type_toks)
            )
        return self.parse_postfix(depth + 1)

    def parse_postfix(self, depth: int) -> AstNode:
        start = self.pos
        expr = self.parse_primary(depth + 1)
        while True:
            t = self.peek()
            if t is None:
                return expr
            if t.lexeme == "(":
                args = self.parse_call_args(depth + 1)
                callee = expr.name if expr.kind == "Ident" else None
                expr = AstNode(
                    "Call", self.span_from(start), [expr] + args, name=callee
                )
            elif t.lexeme == "[":
                self.advance()
                idx = self.parse_expression(depth + 1)
                self.expect("]")
                expr = AstNode(
                    "Binary", self.span_from(start), [expr, idx], value="[]"
                )
            elif t.lexeme in (".", "->"):
                op = self.advance().lexeme
                m = self.peek()
                if m is None or m.kind != KIND_IDENT:
                    raise _ParseError("expected member name")
                member = self.advance()
                expr = AstNode(
                    "Binary",
                    self.span_from(start),
                    [expr, AstNode("Ident", member.span, name=member.lexeme)],
                    value=op,
                )
            elif t.lexeme in ("++", "--"):
                op = self.advance().lexeme
                expr = AstNode(
                    "Unary", self.span_from(start), [expr], value=op
                )
            else:
                return expr

    def parse_call_args(self, depth: int) -> list[AstNode]:
        self.expect("(")
        args = []
        if self.at(")"):
            self.advance()
            return args
        while True:
            args.append(self.parse_assignment(depth + 1))
            if self.at(","):
                self.advance()
                continue
            break
        self.expect(")")
        return args

    def parse_primary(self, depth: int) -> AstNode:
        t = self.peek()
        if t is None:
            raise _ParseError("expected expression")
        if t.kind == KIND_IDENT:
            self.advance()
            if t.lexeme == "NULL":
                return AstNode("Literal", t.span, value="NULL", literal_kind="null")
            return AstNode("Ident", t.span, name=t.lexeme)
        if t.kind in (KIND_INT, KIND_STRING, KIND_WSTRING, KIND_CHAR):
            self.advance()
            return AstNode("Literal", t.span, value=t.lexeme, literal_kind=t.kind)
        if t.lexeme == "(":
            self.advance()
            expr = self.parse_expression(depth + 1)
            self.expect(")")
            return expr
        if t.lexeme == "{":
            # brace initializer: consume opaquely
            start = self.pos
            self.skip_balanced("{", "}")
            return AstNode("Literal", self.span_from(start), value="{...}", literal_kind=KIND_INT)
        raise _ParseError(f"unexpected token {t.lexeme!r}")


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
