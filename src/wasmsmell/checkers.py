"""Smell detectors for C/C++ code headed to WebAssembly.

CHECKER_DEFS is the one registry of ids, CWEs and defaults. Structural
checkers walk the AST and resolve names through the same cfg.Scopes
that lowering uses; flow checkers implement engine hooks, reason per
path, and get their CWE from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import Scopes
from .cparser import AstNode, DeclInfo
from .engine import Checker, Null, Resource
from .lexer import KIND_CHAR, KIND_INT, KIND_STRING, KIND_WSTRING
from .report import Finding

# -- registry ------------------------------------------------------------


@dataclass(frozen=True)
class CheckerDef:
    id: str
    cwe: int | None
    default_enabled: bool
    description: str


CHECKER_DEFS = [
    CheckerDef("access-env", None, True, "call to getenv()"),
    CheckerDef("pointer-subtraction", 469, True, "pointer minus pointer"),
    CheckerDef("format-arg-count", 685, True, "too few format arguments"),
    CheckerDef("format-arg-type", 688, True, "format/argument type mismatch"),
    CheckerDef("double-free", 415, True, "free() of an already-freed buffer"),
    CheckerDef("double-fclose", 675, True, "fclose() of an already-closed stream"),
    CheckerDef("error-without-action", 390, True, "fclose() without null check after fopen"),
    CheckerDef("improper-resource-shutdown", 404, True, "fclose() on an int file descriptor"),
    CheckerDef("uninitialized-variable", 457, True, "read of an uninitialized variable"),
    CheckerDef("bad-fputs-comparison", 235, True, "fputs() result compared to 0"),
    CheckerDef("wide-string", None, True, "wprintf() without a prior fwide()"),
    CheckerDef("alloca-free", 590, False, "free() of stack memory from alloca"),
    CheckerDef("offset-free", 761, False, "free() of an offset into an allocation"),
]

CHECKERS_BY_ID = {d.id: d for d in CHECKER_DEFS}


def all_checker_ids() -> list[str]:
    return [d.id for d in CHECKER_DEFS]


def default_checker_ids() -> list[str]:
    return [d.id for d in CHECKER_DEFS if d.default_enabled]


class UnknownCheckerError(ValueError):
    pass


def validate_checker_ids(ids) -> list[str]:
    for cid in ids:
        if cid not in CHECKERS_BY_ID:
            raise UnknownCheckerError(f"unknown checker id: {cid}")
    return list(ids)


# -- flow checkers --------------------------------------------------------


class DoubleFreeChecker(Checker):
    id = "double-free"

    def pre_call(self, ctx, state, callee, arg_syms, arg_exprs, span):
        if callee == "free" and arg_syms:
            if state.resource.get(arg_syms[0]) is Resource.FREED:
                ctx.report(self, span, "free() called on memory that was already freed")


class DoubleFcloseChecker(Checker):
    id = "double-fclose"

    def pre_call(self, ctx, state, callee, arg_syms, arg_exprs, span):
        if callee == "fclose" and arg_syms:
            if state.resource.get(arg_syms[0]) is Resource.FILE_CLOSED:
                ctx.report(self, span, "fclose() called on a stream that was already closed")


class ErrorWithoutActionChecker(Checker):
    id = "error-without-action"

    def pre_call(self, ctx, state, callee, arg_syms, arg_exprs, span):
        if callee != "fclose" or not arg_syms:
            return
        sym = arg_syms[0]
        origin = state.origin.get(sym)
        if origin in ("fopen", "freopen") and state.nullc.get(sym, Null.UNKNOWN) is not Null.NON_NULL:
            ctx.report(
                self,
                span,
                f"fclose() on the result of {origin}() that was never checked against NULL",
            )


class ImproperResourceShutdownChecker(Checker):
    id = "improper-resource-shutdown"

    def pre_call(self, ctx, state, callee, arg_syms, arg_exprs, span):
        if callee == "fclose" and arg_syms and arg_syms[0] in state.fd_int:
            ctx.report(
                self,
                span,
                "fclose() on an int file descriptor returned by open(); use close()",
            )


class UninitializedVariableChecker(Checker):
    id = "uninitialized-variable"

    def variable_read(self, ctx, state, var, sym, span):
        if sym not in state.uninit:
            return
        decl = ctx.decl_of(var)
        if decl is None or decl.is_param or decl.is_array:
            return
        ctx.report(self, span, f"variable '{decl.name}' may be read before it is initialized")


class BadFputsComparisonChecker(Checker):
    id = "bad-fputs-comparison"

    def branch_assumed(self, ctx, state, expr, taken, span):
        if expr.kind != "Binary" or expr.value not in ("==", "!="):
            return
        lhs, rhs = expr.children[0], expr.children[1]
        for side, other in ((lhs, rhs), (rhs, lhs)):
            sym = ctx.sym_of(state, side)
            if sym is None or state.origin.get(sym) != "fputs":
                continue
            if ctx.is_zero(state, other):
                ctx.report(
                    self,
                    span,
                    "return value of fputs() compared for equality with 0; "
                    "musl returns 0 on success",
                )
                return


class WideStringChecker(Checker):
    id = "wide-string"

    def pre_call(self, ctx, state, callee, arg_syms, arg_exprs, span):
        if callee == "wprintf" and "fwide-called" not in state.flags:
            ctx.report(self, span, "wprintf() called without a preceding fwide() on this path")


class AllocaFreeChecker(Checker):
    id = "alloca-free"

    def pre_call(self, ctx, state, callee, arg_syms, arg_exprs, span):
        if callee != "free" or not arg_syms:
            return
        root, _ = ctx.base_offset(state, arg_syms[0])
        if state.resource.get(root) is Resource.STACK:
            ctx.report(self, span, "free() called on stack memory allocated with alloca()")


class OffsetFreeChecker(Checker):
    id = "offset-free"

    def pre_call(self, ctx, state, callee, arg_syms, arg_exprs, span):
        if callee != "free" or not arg_syms:
            return
        root, offset = ctx.base_offset(state, arg_syms[0])
        if offset in (0, None):
            return
        if state.resource.get(root) in (Resource.HEAP, Resource.STACK):
            ctx.report(
                self,
                span,
                "free() called on a pointer offset from the start of its allocation",
            )


FLOW_CHECKER_CLASSES = {
    cls.id: cls
    for cls in (
        DoubleFreeChecker,
        DoubleFcloseChecker,
        ErrorWithoutActionChecker,
        ImproperResourceShutdownChecker,
        UninitializedVariableChecker,
        BadFputsComparisonChecker,
        WideStringChecker,
        AllocaFreeChecker,
        OffsetFreeChecker,
    )
}


def make_flow_checkers(enabled_ids) -> list[Checker]:
    """Fresh instances per function analysis; checkers hold no cross-function state."""
    return [
        FLOW_CHECKER_CLASSES[cid](CHECKERS_BY_ID[cid].cwe)
        for cid in enabled_ids
        if cid in FLOW_CHECKER_CLASSES
    ]


# -- structural checkers ---------------------------------------------------

FORMAT_FUNCS = {"printf": 0, "wprintf": 0, "fprintf": 1, "sprintf": 1, "snprintf": 2}

_INT_BASES = frozenset(
    """
    int long short unsigned signed char bool size_t ssize_t mode_t off_t
    time_t ptrdiff_t intptr_t uintptr_t
    int8_t int16_t int32_t int64_t uint8_t uint16_t uint32_t uint64_t
    """.split()
)
_FLOAT_BASES = frozenset(["float", "double"])

# coarse argument categories for format checking
T_INT = "int"
T_DOUBLE = "double"
T_STR = "str"
T_WSTR = "wstr"
T_PTR = "ptr"
T_UNKNOWN = "unknown"


def _type_from_decl(decl: DeclInfo) -> str:
    words = decl.base.split()
    if decl.pointerish:
        if "char" in words and decl.ptr_depth <= 1:
            return T_STR
        if "wchar_t" in words and decl.ptr_depth <= 1:
            return T_WSTR
        return T_PTR
    if any(w in _FLOAT_BASES for w in words):
        return T_DOUBLE
    if any(w in _INT_BASES for w in words):
        return T_INT
    return T_UNKNOWN


def expr_type(expr: AstNode, scopes: Scopes) -> str:
    kind = expr.kind
    if kind == "Literal":
        lk = expr.literal_kind
        if lk == "null":
            return T_PTR
        if lk == KIND_STRING:
            return T_STR
        if lk == KIND_WSTRING:
            return T_WSTR
        if lk == KIND_CHAR:
            return T_INT
        if lk == KIND_INT:
            v = expr.value or ""
            if not v.lower().startswith("0x") and "." in v:
                return T_DOUBLE
            return T_INT
        return T_UNKNOWN
    if kind == "Ident":
        unique = scopes.resolve(expr.name)
        if unique is None:
            return T_UNKNOWN
        return _type_from_decl(scopes.symbols[unique])
    if kind == "Cast":
        text = expr.value or ""
        return _type_from_decl(DeclInfo("", text.replace("*", " "), text.count("*")))
    if kind == "Unary":
        op = expr.value
        if op == "&":
            return T_PTR
        if op in ("-", "+"):
            return expr_type(expr.children[0], scopes)
        if op == "!":
            return T_INT
        return T_UNKNOWN
    if kind == "Binary":
        op = expr.value
        if op == "[]":
            inner = expr_type(expr.children[0], scopes)
            if inner in (T_STR, T_WSTR):
                return T_INT  # element of a char/wchar buffer
            return T_UNKNOWN
        if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return T_INT
        if op == ",":
            return expr_type(expr.children[-1], scopes)
        return T_UNKNOWN
    return T_UNKNOWN


_CONVERSIONS = {
    "d": T_INT, "i": T_INT, "u": T_INT, "o": T_INT, "x": T_INT, "X": T_INT,
    "c": T_INT, "s": T_STR, "p": T_PTR,
    "f": T_DOUBLE, "e": T_DOUBLE, "E": T_DOUBLE, "g": T_DOUBLE, "G": T_DOUBLE,
}


def parse_format(lexeme: str) -> list[str]:
    """Expected argument categories for a string-literal format lexeme."""
    body = lexeme
    if body.startswith("L"):
        body = body[1:]
    body = body.strip('"')
    expected: list[str] = []
    i, n = 0, len(body)
    while i < n:
        if body[i] != "%":
            i += 2 if body[i] == "\\" and i + 1 < n else 1
            continue
        i += 1
        if i < n and body[i] == "%":
            i += 1
            continue
        while i < n and body[i] in "-+ #0":
            i += 1
        if i < n and body[i] == "*":
            expected.append(T_INT)
            i += 1
        else:
            while i < n and body[i].isdigit():
                i += 1
        if i < n and body[i] == ".":
            i += 1
            if i < n and body[i] == "*":
                expected.append(T_INT)
                i += 1
            else:
                while i < n and body[i].isdigit():
                    i += 1
        length = ""
        while i < n and body[i] in "hljzt L":
            if body[i] == " ":
                break
            length += body[i]
            i += 1
        if i >= n:
            break
        conv = body[i]
        i += 1
        if conv == "s" and "l" in length:
            expected.append(T_WSTR)
        else:
            expected.append(_CONVERSIONS.get(conv, T_UNKNOWN))
    return expected


_TYPE_MISMATCH = {
    T_INT: {T_STR, T_WSTR, T_PTR, T_DOUBLE},
    T_STR: {T_INT, T_DOUBLE, T_WSTR},
    T_WSTR: {T_INT, T_DOUBLE, T_STR},
    T_PTR: {T_DOUBLE},
    T_DOUBLE: {T_INT, T_STR, T_WSTR, T_PTR},
}


@dataclass
class StructuralResult:
    findings: list[Finding]
    skipped_sites: int = 0


def _mk(defn: CheckerDef, span, message: str) -> Finding:
    return Finding(
        checker=defn.id,
        cwe=defn.cwe,
        file="",
        line=span.line,
        col=span.col,
        message=message,
    )


def check_structural(unit: AstNode, enabled_ids) -> StructuralResult:
    """Run AST-only checkers over a translation unit."""
    enabled = set(enabled_ids)
    result = StructuralResult([])
    for top in unit.children:
        scopes = Scopes()
        if top.kind == "FunctionDef":
            scopes.declare_params(top)
            _scan(top.children[-1], scopes, True, enabled, result)
        else:  # file-scope names stay unresolved
            _scan(top, scopes, False, enabled, result)
    return result


def _scan(root: AstNode, scopes: Scopes, declare: bool, enabled, result: StructuralResult):
    """Pre-order walk of `root`, scoping names as lowering does: only a
    Block opens a scope (a DeclList or a switch Arm does not), and a None
    on the stack closes the innermost one."""
    stack: list[AstNode | None] = [root]
    while stack:
        n = stack.pop()
        if n is None:
            scopes.pop()
            continue
        kind = n.kind
        if kind == "Block":
            scopes.push()
            stack.append(None)
        elif kind == "Decl":
            if declare and n.decl is not None:
                scopes.declare(n.decl)
        elif kind == "Call" and scopes.resolve(n.name) is None:  # a local `getenv` is not the function
            if n.name == "getenv" and "access-env" in enabled:
                result.findings.append(
                    _mk(
                        CHECKERS_BY_ID["access-env"],
                        n.span,
                        "call to getenv(); the environment is empty by default "
                        "in a WebAssembly runtime",
                    )
                )
            if n.name in FORMAT_FUNCS:
                _check_format_call(n, scopes, enabled, result)
        elif kind == "Binary" and n.value == "-" and "pointer-subtraction" in enabled:
            lt = expr_type(n.children[0], scopes)
            rt = expr_type(n.children[1], scopes)
            if lt in (T_PTR, T_STR, T_WSTR) and rt in (T_PTR, T_STR, T_WSTR):
                result.findings.append(
                    _mk(
                        CHECKERS_BY_ID["pointer-subtraction"],
                        n.span,
                        "subtraction of two pointers; offsets differ between "
                        "native and WebAssembly memory layouts",
                    )
                )
        stack.extend(reversed(n.children))


def _check_format_call(call: AstNode, scopes: Scopes, enabled, result: StructuralResult):
    if not ("format-arg-count" in enabled or "format-arg-type" in enabled):
        return
    fmt_index = FORMAT_FUNCS[call.name]
    args = call.children[1:]
    if len(args) <= fmt_index:
        return
    fmt = args[fmt_index]
    if fmt.kind != "Literal" or fmt.literal_kind not in (KIND_STRING, KIND_WSTRING):
        result.skipped_sites += 1
        return
    expected = parse_format(fmt.value or "")
    provided = args[fmt_index + 1 :]
    if len(provided) < len(expected):
        if "format-arg-count" in enabled:
            result.findings.append(
                _mk(
                    CHECKERS_BY_ID["format-arg-count"],
                    call.span,
                    f"{call.name}() format expects {len(expected)} argument(s) "
                    f"but only {len(provided)} provided",
                )
            )
        return
    if "format-arg-type" not in enabled:
        return
    for want, arg in zip(expected, provided):
        if want == T_UNKNOWN:
            continue
        got = expr_type(arg, scopes)
        if got in _TYPE_MISMATCH.get(want, ()):
            result.findings.append(
                _mk(
                    CHECKERS_BY_ID["format-arg-type"],
                    arg.span,
                    f"format conversion expects {want} but argument has type {got}",
                )
            )
