"""Pretty-printer for programs, types, and refinement expressions.

print_program(parse_program(src)) re-parses to a structurally equal tree.
"""

from __future__ import annotations

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
    FnSig,
    If,
    Indexed,
    IntBase,
    IntConst,
    IntLit,
    KApp,
    Let,
    LetNew,
    Loc,
    LocConst,
    LocCtx,
    Not,
    Place,
    Poison,
    PPtr,
    PBad,
    PrimOp,
    Program,
    PVar,
    RecFn,
    Ref,
    RefExpr,
    StrongPtr,
    TaggedPtr,
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
    VecVal,
)

# Precedence levels, loosest first: || < && < ! < (=, !=, <, <=, >, >=) < +- < *
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_CMP = 4
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_ATOM = 7


def print_refexpr(e: RefExpr, prec: int = 0) -> str:
    def wrap(s: str, p: int) -> str:
        return f"({s})" if p < prec else s

    match e:
        case Var(name):
            return name
        case IntConst(v):
            return str(v) if v >= 0 else wrap(str(v), _PREC_CMP)
        case BoolConst(v):
            return "true" if v else "false"
        case LocConst(l):
            return f"#{l}"
        case Not(Eq(l, r)):
            s = f"{print_refexpr(l, _PREC_ADD)} != {print_refexpr(r, _PREC_ADD)}"
            return wrap(s, _PREC_CMP)
        case Eq(l, r):
            s = f"{print_refexpr(l, _PREC_ADD)} = {print_refexpr(r, _PREC_ADD)}"
            return wrap(s, _PREC_CMP)
        case Cmp(op, l, r):
            s = f"{print_refexpr(l, _PREC_ADD)} {op} {print_refexpr(r, _PREC_ADD)}"
            return wrap(s, _PREC_CMP)
        case Not(a):
            return wrap(f"!{print_refexpr(a, _PREC_ATOM)}", _PREC_NOT)
        case BinBool("and", l, r):
            s = f"{print_refexpr(l, _PREC_AND)} && {print_refexpr(r, _PREC_AND + 1) if _is_and(r) else print_refexpr(r, _PREC_AND)}"
            return wrap(s, _PREC_AND)
        case BinBool("or", l, r):
            s = f"{print_refexpr(l, _PREC_OR)} || {print_refexpr(r, _PREC_OR)}"
            return wrap(s, _PREC_OR)
        case BinArith("+", l, r):
            s = f"{print_refexpr(l, _PREC_ADD)} + {print_refexpr(r, _PREC_MUL)}"
            return wrap(s, _PREC_ADD)
        case BinArith("-", l, r):
            s = f"{print_refexpr(l, _PREC_ADD)} - {print_refexpr(r, _PREC_MUL)}"
            return wrap(s, _PREC_ADD)
        case BinArith("*", l, r):
            s = f"{print_refexpr(l, _PREC_MUL)} * {print_refexpr(r, _PREC_ATOM)}"
            return wrap(s, _PREC_MUL)
        case KApp(kvar, args):
            return f"${kvar.name}({', '.join(print_refexpr(a) for a in args)})"
        case _:
            raise TypeError(f"print_refexpr: {e!r}")


def _is_and(e: RefExpr) -> bool:
    return isinstance(e, BinBool) and e.op == "and"


def print_loc(loc: Loc) -> str:
    if isinstance(loc, AbstractLoc):
        return loc.name
    return f"#{loc.loc_id}"


def print_locctx(ctx: LocCtx) -> str:
    return ", ".join(f"{print_loc(l)} -> {print_type(t)}" for l, t in ctx)


def print_type(t: Type) -> str:
    match t:
        case Indexed(IntBase(), idx):
            return f"int[{print_refexpr(idx)}]"
        case Indexed(BoolBase(), idx):
            return f"bool[{print_refexpr(idx)}]"
        case Indexed(VecBase(elem), idx):
            return f"Vec<{print_type(elem)}>[{print_refexpr(idx)}]"
        case Exists(binder, base, pred):
            b = _print_base(base)
            return f"{{{binder}. {b}[{binder}] | {print_refexpr(pred)}}}"
        case StrongPtr(loc):
            return f"ptr({print_loc(loc)})"
        case Ref("mut", pointee):
            return f"&mut {print_type(pointee)}"
        case Ref("shr", pointee):
            return f"&shr {print_type(pointee)}"
        case Uninit(n):
            return f"uninit({n})"
        case FnSig() as sig:
            return f"fn {print_sig(sig)}"
        case _:
            raise TypeError(f"print_type: {t!r}")


def _print_base(base) -> str:
    if isinstance(base, IntBase):
        return "int"
    if isinstance(base, BoolBase):
        return "bool"
    return f"Vec<{print_type(base.elem)}>"


def print_sig(sig: FnSig) -> str:
    parts = []
    rparams = ", ".join(f"{n}: {s}" for n, s in sig.refparams)
    head = rparams
    requires_shown = not (isinstance(sig.requires, BoolConst) and sig.requires.value)
    if requires_shown or sig.in_locs:
        head += f" | {print_refexpr(sig.requires)}"
    if sig.in_locs:
        head += f" | {print_locctx(sig.in_locs)}"
    parts.append("{" + head + "}")
    parts.append("(" + ", ".join(print_type(a) for a in sig.args) + ")")
    parts.append("-> " + print_type(sig.ret))
    out = " ".join(parts)
    if sig.out_locs:
        out += "; " + print_locctx(sig.out_locs)
    return out


def print_place(p: Place) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PPtr):
        return f"<ptr #{p.loc_id} tag {p.tag}>"
    if isinstance(p, PBad):
        return "<bad place>"
    raise TypeError(f"print_place: {p!r}")


def print_value(v: Value) -> str:
    match v:
        case RecFn(fname, refparams, params, body, _sig):
            rp = ""
            if refparams:
                rp = " {" + ", ".join(f"{n}: {s}" for n, s in refparams) + "}"
            ps = " ".join(params)
            return f"rec {fname}{rp} ({ps}) := {print_expr(body)}"
        case BoolLit(b):
            return "true" if b else "false"
        case IntLit(z):
            return str(z)
        case Poison():
            return "poison"
        case TaggedPtr(l, t):
            return f"<ptr #{l} tag {t}>"
        case VecVal(n, payload):
            return f"<vec {n} {print_value(payload)}>"
        case VecNew():
            return "vec_new"
        case VecPush():
            return "vec_push"
        case VecIndexMut():
            return "vec_index_mut"
        case PrimOp(op):
            return op
        case _:
            raise TypeError(f"print_value: {v!r}")


def print_expr(e: Expr, indent: int = 0) -> str:
    pad = "  " * indent
    # a let chain is printed in a loop, so its length is not bounded by the
    # recursion limit
    heads = []
    while isinstance(e, (Let, LetNew)):
        if isinstance(e, LetNew):
            heads.append(f"let {e.name} = new({e.locvar}) in\n{pad}")
        else:
            heads.append(f"let {e.name} = {print_expr(e.bound, indent)} in\n{pad}")
        e = e.body
    if heads:
        return "".join(heads) + print_expr(e, indent)
    match e:
        case Unpack(x, a, body):
            return f"unpack ({x}, {a}) in\n{pad}{print_expr(body, indent)}"
        case If(c, t1, t2):
            inner = "  " * (indent + 1)
            return (
                f"if {print_expr(c, indent)} {{\n"
                f"{inner}{print_expr(t1, indent + 1)}\n{pad}}} else {{\n"
                f"{inner}{print_expr(t2, indent + 1)}\n{pad}}}"
            )
        case Call(callee, ref_args, args, type_args):
            out = f"call {print_expr(callee, indent)}"
            if type_args:
                out += "<" + ", ".join(print_type(t) for t in type_args) + ">"
            if ref_args:
                out += " {" + ", ".join(print_refexpr(r) for r in ref_args) + "}"
            out += "(" + ", ".join(print_expr(a, indent) for a in args) + ")"
            return out
        case Assign(place, rhs):
            return f"{print_place(place)} := {print_expr(rhs, indent)}"
        case BorrowStrong(place):
            return f"&strg {print_place(place)}"
        case BorrowMut(place):
            return f"&mut {print_place(place)}"
        case BorrowShr(place):
            return f"&shr {print_place(place)}"
        case Deref(place):
            return f"*{print_place(place)}"
        case VarRef(name):
            return name
        case Val(value):
            return print_value(value)
        case _:
            raise TypeError(f"print_expr: {e!r}")


def print_program(p: Program) -> str:
    chunks = []
    for decl in p.decls:
        chunks.append(
            f"fn {decl.name} {print_sig(decl.sig)} :=\n  {print_expr(decl.fn.body, 1)}"
            if _plain_rec(decl)
            else f"fn {decl.name} {print_sig(decl.sig)} :=\n  {print_value_decl(decl.fn, 1)}"
        )
    if p.entry is not None:
        chunks.append(f"entry {print_expr(p.entry, 0)}")
    return "\n\n".join(chunks) + "\n"


def _plain_rec(decl) -> bool:
    return False


def print_value_decl(fn: RecFn, indent: int) -> str:
    pad = "  " * indent
    rp = ""
    if fn.refparams:
        rp = " {" + ", ".join(f"{n}: {s}" for n, s in fn.refparams) + "}"
    ps = " ".join(fn.params)
    return f"rec {fn.fname}{rp} ({ps}) :=\n{pad}  {print_expr(fn.body, indent + 1)}"
