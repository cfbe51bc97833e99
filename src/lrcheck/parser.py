"""Lexer and recursive-descent parser for the surface syntax.

Whitespace-insensitive, `//` line comments.  Every expression node gets a
source span.  Tagged pointers and concrete locations are runtime-only and
are rejected here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple, TypeVar

from .syntax import (
    ATOM_LEVEL,
    CMP_LEVEL,
    LEVELS,
    NOT_LEVEL,
    TRUE,
    AbstractLoc,
    Assign,
    BaseType,
    BinArith,
    BinBool,
    BoolBase,
    BoolConst,
    BoolLit,
    BorrowMut,
    BorrowShr,
    BorrowStrong,
    Call,
    Cmp,
    Deref,
    Eq,
    Exists,
    Expr,
    FnDecl,
    FnSig,
    If,
    Indexed,
    IntBase,
    IntConst,
    IntLit,
    Let,
    LetNew,
    LocCtx,
    Not,
    Poison,
    Program,
    PVar,
    RecFn,
    Ref,
    RefExpr,
    Sort,
    Span,
    StrongPtr,
    Type,
    Uninit,
    Unpack,
    Val,
    Value,
    Var,
    VarRef,
    VecBase,
    VecIndexMut,
    VecNew,
    VecPush,
)

KEYWORDS = {
    "fn", "entry", "let", "new", "in", "unpack", "if", "else", "call", "rec",
    "true", "false", "poison", "vec_new", "vec_push", "vec_index_mut",
    "int", "bool", "loc", "ptr", "uninit", "Vec", "mut", "shr", "strg",
}

# one alternative per token class, tried in this order at each position;
# punctuation longest first, and any other character is an error
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>//[^\n]*)"
    r"|(?P<int>[0-9]+)|(?P<word>\w+)"
    r"|(?P<punct>:=|->|&&|\|\||!=|<=|>=|[-{}()\[\]<>,.|=!+*&;:])|(?P<other>.)"
)

# the node each binary operator of `LEVELS` builds from its operands
BINARY = {
    "||": partial(BinBool, "or"),
    "&&": partial(BinBool, "and"),
    "=": Eq,
    "!=": lambda lhs, rhs: Not(Eq(lhs, rhs)),
    **{op: partial(Cmp, op) for op in ("<", "<=", ">", ">=")},
    **{op: partial(BinArith, op) for op in ("+", "-", "*")},
}

KEYWORD_VALUES = {
    "true": BoolLit(True),
    "false": BoolLit(False),
    "poison": Poison(),
    "vec_new": VecNew(),
    "vec_push": VecPush(),
    "vec_index_mut": VecIndexMut(),
}


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "kw" | punctuation itself | "eof"
    text: str
    line: int
    col: int

    def describe(self) -> str:
        """The token as a diagnostic names it; the eof token is `end of input`."""
        return "end of input" if self.kind == "eof" else repr(self.text)


T = TypeVar("T")


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int, expected: Tuple[str, ...] = ()):
        loc = f"{line}:{col}"
        if expected:
            msg = f"{msg} (expected one of: {', '.join(sorted(expected))})"
        super().__init__(f"{loc}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col
        self.expected = expected


def lex(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "other" or (kind == "word" and not (text[0].isalpha() or text[0] == "_")):
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        if kind == "word":
            kind = "kw" if text in KEYWORDS else "ident"
        elif kind == "punct":
            kind = text
        if kind not in ("blank", "comment"):
            tokens.append(Token(kind, text, line, col))
        col += len(text)
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    def __init__(self, source: str):
        self.tokens = lex(source)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def at_kw(self, word: str) -> bool:
        return self.at("kw", word)

    @staticmethod
    def unexpected(tok: Token, *expected: str) -> ParseError:
        """The error for an unexpected token."""
        return ParseError(
            f"unexpected {tok.describe()}", tok.line, tok.col, expected=expected
        )

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            raise self.unexpected(self.peek(), text or kind)
        return self.next()

    def expect_kw(self, word: str) -> Token:
        return self.expect("kw", word)

    def expect_ident(self) -> Token:
        if not self.at("ident"):
            raise self.unexpected(self.peek(), "identifier")
        return self.next()

    def comma_list(self, parse: Callable[[], T], nonempty: bool = True) -> Tuple[T, ...]:
        """Items read by `parse`, separated by commas; none at all unless
        `nonempty`, which the caller decides from the next token."""
        items = [parse()] if nonempty else []
        while items and self.at(","):
            self.next()
            items.append(parse())
        return tuple(items)

    def enclosed(
        self, opener: str, parse: Callable[[], T], closer: str, nonempty: bool = True
    ) -> Tuple[T, ...]:
        """A comma list between `opener` and `closer`, empty only if not
        `nonempty`."""
        self.expect(opener)
        items = self.comma_list(parse, nonempty or not self.at(closer))
        self.expect(closer)
        return items

    def _span_from(self, tok: Token) -> Span:
        prev = self.tokens[max(self.pos - 1, 0)]
        return Span(tok.line, tok.col, prev.line, prev.col + len(prev.text))

    # -- program -----------------------------------------------------------

    def parse_program(self) -> Program:
        decls = []
        while self.at_kw("fn"):
            decls.append(self.parse_fndecl())
        entry = None
        if self.at_kw("entry"):
            self.next()
            entry = self.parse_expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"trailing input {tok.text!r}", tok.line, tok.col,
                expected=("fn", "entry", "end of input"),
            )
        return Program(tuple(decls), entry)

    def parse_fndecl(self) -> FnDecl:
        start = self.expect_kw("fn")
        name = self.expect_ident().text
        sig = self.parse_sig()
        self.expect(":=")
        body = self.parse_expr()
        if not (isinstance(body, Val) and isinstance(body.value, RecFn)):
            raise ParseError(
                f"top-level '{name}' must be a rec value", start.line, start.col
            )
        fn = body.value
        return FnDecl(name, sig, fn, span=self._span_from(start))

    # -- signatures and types ----------------------------------------------

    def parse_sig(self) -> FnSig:
        self.expect("{")
        refparams = self.comma_list(self.parse_rparam, self.at("ident"))
        requires: RefExpr = TRUE
        in_locs = LocCtx()
        if self.at("|"):
            self.next()
            if self._at_locctx():
                in_locs = self.parse_locctx()
            else:
                requires = self.parse_refexpr()
                if self.at("|"):
                    self.next()
                    in_locs = self.parse_locctx()
        self.expect("}")
        args = self.enclosed("(", self.parse_type, ")", nonempty=False)
        self.expect("->")
        ret = self.parse_type()
        out_locs = LocCtx()
        if self.at(";"):
            self.next()
            out_locs = self.parse_locctx()
        return FnSig(refparams, requires, in_locs, args, ret, out_locs)

    def parse_rparam(self) -> Tuple[str, Sort]:
        name = self.expect_ident().text
        self.expect(":")
        return (name, self.parse_sort())

    def parse_sort(self) -> Sort:
        tok = self.peek()
        if tok.kind != "kw" or tok.text not in ("int", "bool", "loc"):
            raise self.unexpected(tok, "int", "bool", "loc")
        return Sort(self.next().text)

    def _at_locctx(self) -> bool:
        return self.at("ident") and self.peek(1).kind == "->"

    def parse_locctx(self) -> LocCtx:
        return LocCtx(self.comma_list(self.parse_locbind))

    def parse_locbind(self):
        name = self.expect_ident().text
        self.expect("->")
        return (AbstractLoc(name), self.parse_type())

    def parse_type(self) -> Type:
        tok = self.peek()
        if self.at_base():
            return self.parse_indexed(self.parse_base())
        if self.at("{"):
            self.next()
            binder = self.expect_ident().text
            self.expect(".")
            base = self.parse_base()
            self.expect("[")
            if self.expect_ident().text != binder:
                raise ParseError(
                    f"existential index must repeat binder {binder!r}",
                    tok.line, tok.col,
                )
            self.expect("]")
            self.expect("|")
            pred = self.parse_refexpr()
            self.expect("}")
            return Exists(binder, base, pred)
        if self.at_kw("ptr"):
            self.next()
            self.expect("(")
            name = self.expect_ident().text
            self.expect(")")
            return StrongPtr(AbstractLoc(name))
        if self.at("&"):
            self.next()
            mode_tok = self.peek()
            if self.at_kw("mut") or self.at_kw("shr"):
                self.next()
                return Ref(mode_tok.text, self.parse_type())
            raise self.unexpected(mode_tok, "mut", "shr")
        if self.at_kw("uninit"):
            self.next()
            self.expect("(")
            n = int(self.expect("int").text)
            self.expect(")")
            return Uninit(n)
        if self.at_kw("fn"):
            self.next()
            return self.parse_sig()
        raise self.unexpected(
            tok, "int", "bool", "Vec", "{", "ptr", "&", "uninit", "fn"
        )

    def at_base(self) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text in ("int", "bool", "Vec")

    def parse_base(self) -> BaseType:
        """`int`, `bool` or `Vec<T>`."""
        tok = self.peek()
        if not self.at_base():
            raise self.unexpected(tok, "int", "bool", "Vec")
        self.next()
        if tok.text == "Vec":
            self.expect("<")
            elem = self.parse_type()
            self.expect(">")
            return VecBase(elem)
        return IntBase() if tok.text == "int" else BoolBase()

    def parse_indexed(self, base: BaseType) -> Indexed:
        self.expect("[")
        idx = self.parse_refexpr()
        self.expect("]")
        return Indexed(base, idx)

    # -- refinement expressions ---------------------------------------------

    def parse_refexpr(self, prec: int = 1) -> RefExpr:
        """Precedence climbing over `LEVELS`: a term whose binary operators
        are all of level `prec` or above.  An operator applies only if its
        level is at most that of the operator applied last, and after a
        comparison only `&&` and `||` may, so `a < b < c` stops at the
        second `<`."""
        lhs = self.parse_ref_atom()
        last = ATOM_LEVEL
        while True:
            op = self.peek().kind
            level = LEVELS.get(op)
            if level is None or not prec <= level <= last:
                return lhs
            self.next()
            lhs = BINARY[op](lhs, self.parse_refexpr(level + 1))
            last = NOT_LEVEL if level == CMP_LEVEL else level

    def parse_ref_atom(self) -> RefExpr:
        tok = self.peek()
        if self.at("ident"):
            self.next()
            return Var(tok.text)
        if self.at("int"):
            self.next()
            return IntConst(int(tok.text))
        if self.at("-"):
            self.next()
            inner = self.parse_ref_atom()
            if isinstance(inner, IntConst):
                return IntConst(-inner.value)
            return BinArith("-", IntConst(0), inner)
        if self.at_kw("true") or self.at_kw("false"):
            return BoolConst(self.next().text == "true")
        if self.at("!"):
            self.next()
            return Not(self.parse_ref_atom())
        if self.at("("):
            self.next()
            inner = self.parse_refexpr()
            self.expect(")")
            return inner
        raise self.unexpected(
            tok, "identifier", "integer", "true", "false", "!", "(", "-"
        )

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        tok = self.peek()
        if self.at_kw("let") or self.at_kw("unpack"):
            return self.parse_let()
        if self.at_kw("if"):
            self.next()
            cond = self.parse_expr()
            self.expect("{")
            then = self.parse_expr()
            self.expect("}")
            self.expect_kw("else")
            self.expect("{")
            els = self.parse_expr()
            self.expect("}")
            return If(cond, then, els, span=self._span_from(tok))
        if self.at_kw("call"):
            return self.parse_call()
        if self.at("&"):
            self.next()
            mode = self.peek()
            if mode.kind == "kw" and mode.text in ("strg", "mut", "shr"):
                self.next()
                place = PVar(self.expect_ident().text)
                span = self._span_from(tok)
                if mode.text == "strg":
                    return BorrowStrong(place, span=span)
                if mode.text == "mut":
                    return BorrowMut(place, span=span)
                return BorrowShr(place, span=span)
            raise self.unexpected(mode, "strg", "mut", "shr")
        if self.at("*"):
            self.next()
            place = PVar(self.expect_ident().text)
            return Deref(place, span=self._span_from(tok))
        if self.at("ident"):
            name = self.next().text
            if self.at(":="):
                self.next()
                rhs = self.parse_expr()
                return Assign(PVar(name), rhs, span=self._span_from(tok))
            return VarRef(name, span=self._span_from(tok))
        value = self.try_parse_value()
        if value is not None:
            return Val(value, span=self._span_from(tok))
        raise self.unexpected(
            tok, "let", "unpack", "if", "call", "&", "*", "identifier", "value"
        )

    def parse_let(self) -> Expr:
        """A chain of `let` and `unpack` heads is read in a loop and nested
        from the inside out, so its length is not bounded by the recursion
        limit.  Each head spans from its own keyword to the end of the whole
        chain."""
        heads = []
        while self.at_kw("let") or self.at_kw("unpack"):
            start = self.next()
            if start.text == "unpack":
                self.expect("(")
                x = self.expect_ident().text
                self.expect(",")
                a = self.expect_ident().text
                self.expect(")")
                heads.append((start, Unpack, x, a))
            else:
                x = self.expect_ident().text
                self.expect("=")
                if self.at_kw("new"):
                    self.next()
                    self.expect("(")
                    heads.append((start, LetNew, x, self.expect_ident().text))
                    self.expect(")")
                else:
                    heads.append((start, Let, x, self.parse_expr()))
            self.expect_kw("in")
        body = self.parse_expr()
        for start, node, x, arg in reversed(heads):
            body = node(x, arg, body, span=self._span_from(start))
        return body

    def parse_call(self) -> Expr:
        start = self.expect_kw("call")
        callee = self.parse_expr()
        type_args = self.enclosed("<", self.parse_typearg, ">") if self.at("<") else ()
        ref_args = self.enclosed("{", self.parse_refexpr, "}") if self.at("{") else ()
        args = self.enclosed("(", self.parse_aval, ")", nonempty=False)
        return Call(callee, ref_args, args, type_args, span=self._span_from(start))

    def parse_typearg(self) -> Type:
        """Type argument of a call; a bare base `int`, `bool` or `Vec<T>` is
        shorthand for the unconstrained existential over it."""
        if not self.at_base():
            return self.parse_type()
        base = self.parse_base()
        return self.parse_indexed(base) if self.at("[") else Exists("v", base, TRUE)

    def parse_aval(self) -> Expr:
        tok = self.peek()
        if self.at("ident"):
            self.next()
            return VarRef(tok.text, span=self._span_from(tok))
        value = self.try_parse_value()
        if value is not None:
            return Val(value, span=self._span_from(tok))
        raise ParseError(
            f"call arguments must be variables or values, got {tok.describe()}",
            tok.line, tok.col, expected=("identifier", "value"),
        )

    def try_parse_value(self) -> Optional[Value]:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in KEYWORD_VALUES:
            self.next()
            return KEYWORD_VALUES[tok.text]
        if self.at("int"):
            self.next()
            return IntLit(int(tok.text))
        if self.at("-") and self.peek(1).kind == "int":
            self.next()
            return IntLit(-int(self.next().text))
        if self.at_kw("rec"):
            self.next()
            fname = self.expect_ident().text
            refparams = self.enclosed("{", self.parse_rparam, "}") if self.at("{") else ()
            self.expect("(")
            params: List[str] = []
            while self.at("ident"):
                params.append(self.next().text)
            self.expect(")")
            self.expect(":=")
            body = self.parse_expr()
            return RecFn(
                fname, refparams, tuple(params), body, span=self._span_from(tok)
            )
        return None


def parse_program(source: str) -> Program:
    return Parser(source).parse_program()


def _parse_all(source: str, parse: Callable[[Parser], T]) -> T:
    """`parse` over the whole of `source`, which must leave no input."""
    parser = Parser(source)
    result = parse(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return result


def parse_expr(source: str) -> Expr:
    return _parse_all(source, Parser.parse_expr)


def parse_refexpr(source: str) -> RefExpr:
    return _parse_all(source, Parser.parse_refexpr)


def parse_type(source: str) -> Type:
    return _parse_all(source, Parser.parse_type)
