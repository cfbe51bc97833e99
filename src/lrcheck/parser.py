"""Lexer and recursive-descent parser for the surface syntax.

Whitespace-insensitive, `//` line comments.  Every expression node gets a
source span.  Tagged pointers and concrete locations are runtime-only and
are rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .syntax import (
    AbstractLoc,
    Assign,
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

_PUNCT = [
    ":=", "->", "&&", "||", "!=", "<=", ">=",
    "{", "}", "(", ")", "[", "]", "<", ">", ",", ".", "|", "=", "!",
    "+", "-", "*", "&", ";", ":",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "kw" | punctuation itself | "eof"
    text: str
    line: int
    col: int


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
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(Token("int", source[start:i], line, col))
            col += i - start
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
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

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            tok = self.peek()
            want = text or kind
            raise ParseError(
                f"unexpected {tok.text!r}", tok.line, tok.col, expected=(want,)
            )
        return self.next()

    def expect_kw(self, word: str) -> Token:
        return self.expect("kw", word)

    def expect_ident(self) -> Token:
        if not self.at("ident"):
            tok = self.peek()
            raise ParseError(
                f"unexpected {tok.text!r}", tok.line, tok.col, expected=("identifier",)
            )
        return self.next()

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
        refparams: List[Tuple[str, Sort]] = []
        if self.at("ident"):
            refparams.append(self.parse_rparam())
            while self.at(","):
                self.next()
                refparams.append(self.parse_rparam())
        requires: RefExpr = BoolConst(True)
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
        self.expect("(")
        args: List[Type] = []
        if not self.at(")"):
            args.append(self.parse_type())
            while self.at(","):
                self.next()
                args.append(self.parse_type())
        self.expect(")")
        self.expect("->")
        ret = self.parse_type()
        out_locs = LocCtx()
        if self.at(";"):
            self.next()
            out_locs = self.parse_locctx()
        return FnSig(tuple(refparams), requires, in_locs, tuple(args), ret, out_locs)

    def parse_rparam(self) -> Tuple[str, Sort]:
        name = self.expect_ident().text
        self.expect(":")
        return (name, self.parse_sort())

    def parse_sort(self) -> Sort:
        tok = self.peek()
        if self.at_kw("int"):
            self.next()
            return Sort.INT
        if self.at_kw("bool"):
            self.next()
            return Sort.BOOL
        if self.at_kw("loc"):
            self.next()
            return Sort.LOC
        raise ParseError(
            f"unexpected {tok.text!r}", tok.line, tok.col, expected=("int", "bool", "loc")
        )

    def _at_locctx(self) -> bool:
        return self.at("ident") and self.peek(1).kind == "->"

    def parse_locctx(self) -> LocCtx:
        items = [self.parse_locbind()]
        while self.at(","):
            self.next()
            items.append(self.parse_locbind())
        return LocCtx(tuple(items))

    def parse_locbind(self):
        name = self.expect_ident().text
        self.expect("->")
        return (AbstractLoc(name), self.parse_type())

    def parse_type(self) -> Type:
        tok = self.peek()
        if self.at_kw("int") or self.at_kw("bool"):
            base = IntBase() if tok.text == "int" else BoolBase()
            self.next()
            self.expect("[")
            idx = self.parse_refexpr()
            self.expect("]")
            return Indexed(base, idx)
        if self.at_kw("Vec"):
            self.next()
            self.expect("<")
            elem = self.parse_type()
            self.expect(">")
            self.expect("[")
            idx = self.parse_refexpr()
            self.expect("]")
            return Indexed(VecBase(elem), idx)
        if self.at("{"):
            self.next()
            binder = self.expect_ident().text
            self.expect(".")
            base = self.parse_existbase()
            self.expect("[")
            inner = self.expect_ident().text
            if inner != binder:
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
            raise ParseError(
                f"unexpected {mode_tok.text!r}", mode_tok.line, mode_tok.col,
                expected=("mut", "shr"),
            )
        if self.at_kw("uninit"):
            self.next()
            self.expect("(")
            n = int(self.expect("int").text)
            self.expect(")")
            return Uninit(n)
        if self.at_kw("fn"):
            self.next()
            return self.parse_sig()
        raise ParseError(
            f"unexpected {tok.text!r}", tok.line, tok.col,
            expected=("int", "bool", "Vec", "{", "ptr", "&", "uninit", "fn"),
        )

    def parse_existbase(self):
        tok = self.peek()
        if self.at_kw("int"):
            self.next()
            return IntBase()
        if self.at_kw("bool"):
            self.next()
            return BoolBase()
        if self.at_kw("Vec"):
            self.next()
            self.expect("<")
            elem = self.parse_type()
            self.expect(">")
            return VecBase(elem)
        raise ParseError(
            f"unexpected {tok.text!r}", tok.line, tok.col,
            expected=("int", "bool", "Vec"),
        )

    # -- refinement expressions ---------------------------------------------

    def parse_refexpr(self) -> RefExpr:
        return self.parse_ref_or()

    def parse_ref_or(self) -> RefExpr:
        lhs = self.parse_ref_and()
        while self.at("||"):
            self.next()
            lhs = BinBool("or", lhs, self.parse_ref_and())
        return lhs

    def parse_ref_and(self) -> RefExpr:
        lhs = self.parse_ref_cmp()
        while self.at("&&"):
            self.next()
            lhs = BinBool("and", lhs, self.parse_ref_cmp())
        return lhs

    def parse_ref_cmp(self) -> RefExpr:
        lhs = self.parse_ref_add()
        tok = self.peek()
        if tok.kind in ("<", "<=", ">", ">="):
            self.next()
            return Cmp(tok.kind, lhs, self.parse_ref_add())
        if tok.kind == "=":
            self.next()
            return Eq(lhs, self.parse_ref_add())
        if tok.kind == "!=":
            self.next()
            return Not(Eq(lhs, self.parse_ref_add()))
        return lhs

    def parse_ref_add(self) -> RefExpr:
        lhs = self.parse_ref_mul()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            lhs = BinArith(op, lhs, self.parse_ref_mul())
        return lhs

    def parse_ref_mul(self) -> RefExpr:
        lhs = self.parse_ref_atom()
        while self.at("*"):
            self.next()
            lhs = BinArith("*", lhs, self.parse_ref_atom())
        return lhs

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
        if self.at_kw("true"):
            self.next()
            return BoolConst(True)
        if self.at_kw("false"):
            self.next()
            return BoolConst(False)
        if self.at("!"):
            self.next()
            return Not(self.parse_ref_atom())
        if self.at("("):
            self.next()
            inner = self.parse_refexpr()
            self.expect(")")
            return inner
        raise ParseError(
            f"unexpected {tok.text!r}", tok.line, tok.col,
            expected=("identifier", "integer", "true", "false", "!", "(", "-"),
        )

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        tok = self.peek()
        if self.at_kw("let"):
            return self.parse_let()
        if self.at_kw("unpack"):
            self.next()
            self.expect("(")
            x = self.expect_ident().text
            self.expect(",")
            a = self.expect_ident().text
            self.expect(")")
            self.expect_kw("in")
            body = self.parse_expr()
            return Unpack(x, a, body, span=self._span_from(tok))
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
            raise ParseError(
                f"unexpected {mode.text!r}", mode.line, mode.col,
                expected=("strg", "mut", "shr"),
            )
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
        raise ParseError(
            f"unexpected {tok.text!r}", tok.line, tok.col,
            expected=("let", "unpack", "if", "call", "&", "*", "identifier", "value"),
        )

    def parse_let(self) -> Expr:
        """A chain of `let` heads is read in a loop and nested from the
        inside out, so its length is not bounded by the recursion limit.
        Each let spans from its own `let` to the end of the whole chain."""
        heads = []
        while self.at_kw("let"):
            start = self.next()
            x = self.expect_ident().text
            self.expect("=")
            if self.at_kw("new"):
                self.next()
                self.expect("(")
                locvar = self.expect_ident().text
                self.expect(")")
                heads.append((start, x, locvar, None))
            else:
                heads.append((start, x, None, self.parse_expr()))
            self.expect_kw("in")
        body = self.parse_expr()
        for start, x, locvar, bound in reversed(heads):
            span = self._span_from(start)
            if bound is None:
                body = LetNew(x, locvar, body, span=span)
            else:
                body = Let(x, bound, body, span=span)
        return body

    def parse_call(self) -> Expr:
        start = self.expect_kw("call")
        callee = self.parse_expr()
        type_args: List[Type] = []
        if self.at("<"):
            self.next()
            type_args.append(self.parse_typearg())
            while self.at(","):
                self.next()
                type_args.append(self.parse_typearg())
            self.expect(">")
        ref_args: List[RefExpr] = []
        if self.at("{"):
            self.next()
            ref_args.append(self.parse_refexpr())
            while self.at(","):
                self.next()
                ref_args.append(self.parse_refexpr())
            self.expect("}")
        self.expect("(")
        args: List[Expr] = []
        if not self.at(")"):
            args.append(self.parse_aval())
            while self.at(","):
                self.next()
                args.append(self.parse_aval())
        self.expect(")")
        return Call(
            callee, tuple(ref_args), tuple(args), tuple(type_args),
            span=self._span_from(start),
        )

    def parse_typearg(self) -> Type:
        """Type argument of a call; bare `int`, `bool`, or `Vec<T>` are
        shorthand for the unconstrained existential over that base."""
        if self.at_kw("int") and self.peek(1).kind != "[":
            self.next()
            return Exists("v", IntBase(), BoolConst(True))
        if self.at_kw("bool") and self.peek(1).kind != "[":
            self.next()
            return Exists("v", BoolBase(), BoolConst(True))
        if self.at_kw("Vec"):
            save = self.pos
            self.next()
            self.expect("<")
            elem = self.parse_type()
            self.expect(">")
            if self.at("["):
                self.pos = save
                return self.parse_type()
            return Exists("v", VecBase(elem), BoolConst(True))
        return self.parse_type()

    def parse_aval(self) -> Expr:
        tok = self.peek()
        if self.at("ident"):
            self.next()
            return VarRef(tok.text, span=self._span_from(tok))
        value = self.try_parse_value()
        if value is not None:
            return Val(value, span=self._span_from(tok))
        raise ParseError(
            f"call arguments must be variables or values, got {tok.text!r}",
            tok.line, tok.col, expected=("identifier", "value"),
        )

    def try_parse_value(self) -> Optional[Value]:
        tok = self.peek()
        if self.at_kw("true"):
            self.next()
            return BoolLit(True)
        if self.at_kw("false"):
            self.next()
            return BoolLit(False)
        if self.at("int"):
            self.next()
            return IntLit(int(tok.text))
        if self.at("-") and self.peek(1).kind == "int":
            self.next()
            return IntLit(-int(self.next().text))
        if self.at_kw("poison"):
            self.next()
            return Poison()
        if self.at_kw("vec_new"):
            self.next()
            return VecNew()
        if self.at_kw("vec_push"):
            self.next()
            return VecPush()
        if self.at_kw("vec_index_mut"):
            self.next()
            return VecIndexMut()
        if self.at_kw("rec"):
            self.next()
            fname = self.expect_ident().text
            refparams: List[Tuple[str, Sort]] = []
            if self.at("{"):
                self.next()
                refparams.append(self.parse_rparam())
                while self.at(","):
                    self.next()
                    refparams.append(self.parse_rparam())
                self.expect("}")
            self.expect("(")
            params: List[str] = []
            while self.at("ident"):
                params.append(self.next().text)
            self.expect(")")
            self.expect(":=")
            body = self.parse_expr()
            return RecFn(
                fname, tuple(refparams), tuple(params), body,
                span=self._span_from(tok),
            )
        return None


def parse_program(source: str) -> Program:
    return Parser(source).parse_program()


def parse_expr(source: str) -> Expr:
    parser = Parser(source)
    e = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return e


def parse_refexpr(source: str) -> RefExpr:
    parser = Parser(source)
    e = parser.parse_refexpr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return e


def parse_type(source: str) -> Type:
    parser = Parser(source)
    t = parser.parse_type()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return t
