"""Pretty-printer for programs, types, and refinement expressions.

print_program(parse_program(src)) re-parses to a structurally equal tree.
"""

from __future__ import annotations

from .syntax import (
    ATOM_LEVEL,
    CMP_LEVEL,
    NOT_LEVEL,
    AbstractLoc,
    Assign,
    BoolBase,
    BoolConst,
    BoolLit,
    BorrowMut,
    BorrowShr,
    BorrowStrong,
    Call,
    Closure,
    Deref,
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
    LocCtx,
    Not,
    Poison,
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
    binary,
)

def print_refexpr(e: RefExpr, prec: int = 0) -> str:
    """`e` as text that parses back to `e`, in parentheses if its operator
    binds more loosely than level `prec` (an `Operator.level`)."""
    parts = binary(e)
    if parts is not None:
        op, lhs, rhs = parts
        level = op.level
        left_prec = level + 1 if level == CMP_LEVEL else level
        # a chain of one operator nested on its left operand, as `conj`
        # builds it, is printed in a loop, so its length is not bounded by
        # the recursion limit
        rights = [rhs]
        while left_prec == level and (inner := binary(lhs)) and inner[0] is op:
            _, lhs, rhs = inner
            rights.append(rhs)
        operands = [print_refexpr(lhs, left_prec)]
        operands.extend(print_refexpr(r, level + 1) for r in reversed(rights))
        s = f" {op.symbol} ".join(operands)
        return f"({s})" if level < prec else s
    match e:
        case Var(name):
            return name
        case IntConst(v):
            return str(v) if v >= 0 or prec <= CMP_LEVEL else f"({v})"
        case BoolConst(v):
            return "true" if v else "false"
        case Not(a):
            s = f"!{print_refexpr(a, ATOM_LEVEL)}"
            return f"({s})" if NOT_LEVEL < prec else s
        case KApp(kvar, args):
            return f"${kvar.name}({', '.join(print_refexpr(a) for a in args)})"
        case _:
            raise TypeError(f"print_refexpr: {e!r}")


def print_loc(loc: AbstractLoc) -> str:
    return loc.name


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


def print_place(p: PVar) -> str:
    return p.name


def print_value(v: Value) -> str:
    match v:
        case Closure(fn, _):
            return print_value(fn)
        case RecFn(fname, refparams, params, body):
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
    # a let/unpack chain is printed in a loop, so its length is not bounded
    # by the recursion limit
    heads = []
    while isinstance(e, (Let, LetNew, Unpack)):
        if isinstance(e, LetNew):
            heads.append(f"let {e.name} = new({e.locvar}) in\n{pad}")
        elif isinstance(e, Unpack):
            heads.append(f"unpack ({e.var}, {e.refvar}) in\n{pad}")
        else:
            heads.append(f"let {e.name} = {print_expr(e.bound, indent)} in\n{pad}")
        e = e.body
    if heads:
        return "".join(heads) + print_expr(e, indent)
    match e:
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
            f"fn {decl.name} {print_sig(decl.sig)} :=\n  {print_value_decl(decl.fn, 1)}"
        )
    if p.entry is not None:
        chunks.append(f"entry {print_expr(p.entry, 0)}")
    return "\n\n".join(chunks) + "\n"


def print_value_decl(fn: RecFn, indent: int) -> str:
    pad = "  " * indent
    rp = ""
    if fn.refparams:
        rp = " {" + ", ".join(f"{n}: {s}" for n, s in fn.refparams) + "}"
    ps = " ".join(fn.params)
    return f"rec {fn.fname}{rp} ({ps}) :=\n{pad}  {print_expr(fn.body, indent + 1)}"
