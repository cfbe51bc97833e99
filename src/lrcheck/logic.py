"""Sort checking, free variables, substitution, and the value/refinement
bridges (getsort, interp) over the core AST."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set, Tuple, Union

from .syntax import (
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
    ConcreteLoc,
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
    PVar,
    RecFn,
    Ref,
    RefExpr,
    Sort,
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
    PrimOp,
    subterms,
)


class SortError(Exception):
    def __init__(self, msg: str, term: Optional[RefExpr] = None):
        super().__init__(msg)
        self.term = term


class SubstError(Exception):
    pass


# ---------------------------------------------------------------------------
# Refinement contexts

@dataclass(frozen=True)
class Bind:
    name: str
    sort: Sort


@dataclass(frozen=True)
class Assume:
    pred: RefExpr


CtxEntry = Union[Bind, Assume]


@dataclass(frozen=True)
class RefCtx:
    """Ordered refinement context of sort bindings and assumptions."""

    entries: Tuple[CtxEntry, ...] = ()

    def bind(self, name: str, sort: Sort) -> "RefCtx":
        return RefCtx(self.entries + (Bind(name, sort),))

    def assume(self, pred: RefExpr) -> "RefCtx":
        return RefCtx(self.entries + (Assume(pred),))

    def extend(self, other: "RefCtx") -> "RefCtx":
        return RefCtx(self.entries + other.entries)

    def sort_of(self, name: str) -> Optional[Sort]:
        for entry in self.entries:
            if isinstance(entry, Bind) and entry.name == name:
                return entry.sort
        return None

    def domain(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self.entries if isinstance(e, Bind))

    def binds(self) -> Tuple[Bind, ...]:
        return tuple(e for e in self.entries if isinstance(e, Bind))

    def assumptions(self) -> Tuple[RefExpr, ...]:
        return tuple(e.pred for e in self.entries if isinstance(e, Assume))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


EMPTY_REFCTX = RefCtx()


# ---------------------------------------------------------------------------
# getsort / interp

def getsort(base: BaseType) -> Sort:
    if isinstance(base, IntBase):
        return Sort.INT
    if isinstance(base, BoolBase):
        return Sort.BOOL
    if isinstance(base, VecBase):
        return Sort.INT
    raise TypeError(f"not a base type: {base!r}")


def base_of(t: Type) -> Optional[BaseType]:
    """The base of an indexed or existential type; None for other types."""
    if isinstance(t, (Indexed, Exists)):
        return t.base
    return None


def interp(v: Value) -> Optional[RefExpr]:
    """Map a value to its refinement index; None when the value has no
    base-type interpretation (functions, pointers, poison)."""
    if isinstance(v, BoolLit):
        return BoolConst(v.value)
    if isinstance(v, IntLit):
        return IntConst(v.value)
    if isinstance(v, VecVal):
        return IntConst(v.length)
    return None


# ---------------------------------------------------------------------------
# Sort checking

def sortcheck(ctx: RefCtx, e: RefExpr) -> Sort:
    match e:
        case Var(name):
            sort = ctx.sort_of(name)
            if sort is None:
                raise SortError(f"unbound refinement variable '{name}'", e)
            return sort
        case IntConst(_):
            return Sort.INT
        case BoolConst(_):
            return Sort.BOOL
        case LocConst(_):
            return Sort.LOC
        case Eq(lhs, rhs):
            s1 = sortcheck(ctx, lhs)
            s2 = sortcheck(ctx, rhs)
            if s1 != s2:
                raise SortError(f"equality between {s1} and {s2}", e)
            return Sort.BOOL
        case Not(arg):
            if sortcheck(ctx, arg) != Sort.BOOL:
                raise SortError("negation of a non-boolean", e)
            return Sort.BOOL
        case BinBool(_, lhs, rhs):
            for side in (lhs, rhs):
                if sortcheck(ctx, side) != Sort.BOOL:
                    raise SortError("boolean operator on a non-boolean", e)
            return Sort.BOOL
        case BinArith(_, lhs, rhs):
            for side in (lhs, rhs):
                if sortcheck(ctx, side) != Sort.INT:
                    raise SortError("arithmetic on a non-integer", e)
            return Sort.INT
        case Cmp(_, lhs, rhs):
            for side in (lhs, rhs):
                if sortcheck(ctx, side) != Sort.INT:
                    raise SortError("comparison of a non-integer", e)
            return Sort.BOOL
        case KApp(kvar, args):
            if len(args) != len(kvar.params):
                raise SortError(f"{kvar.name} expects {len(kvar.params)} args", e)
            for arg, (_, psort) in zip(args, kvar.params):
                if sortcheck(ctx, arg) != psort:
                    raise SortError(f"ill-sorted argument to {kvar.name}", e)
            return Sort.BOOL
        case _:
            raise SortError(f"unknown refinement term {e!r}", e)


# ---------------------------------------------------------------------------
# Free refinement variables

def free_vars(t) -> Set[str]:
    match t:
        # refinement expressions
        case RefExpr():
            return {x.name for x in subterms(t) if isinstance(x, Var)}

        # locations
        case ConcreteLoc(_):
            return set()
        case AbstractLoc(name):
            return {name}

        # types
        case Indexed(base, idx):
            return free_vars(base) | free_vars(idx)
        case Exists(binder, base, pred):
            return free_vars(base) | (free_vars(pred) - {binder})
        case StrongPtr(loc):
            return free_vars(loc)
        case Ref(_, pointee):
            return free_vars(pointee)
        case Uninit(_):
            return set()
        case FnSig(refparams, requires, in_locs, args, ret, out_locs):
            inner = free_vars(requires) | free_vars(in_locs) | free_vars(out_locs)
            inner |= free_vars(ret)
            for a in args:
                inner |= free_vars(a)
            return inner - {name for name, _ in refparams}

        # base types
        case IntBase() | BoolBase():
            return set()
        case VecBase(elem):
            return free_vars(elem)

        # contexts
        case LocCtx(items):
            out = set()
            for loc, typ in items:
                out |= free_vars(loc) | free_vars(typ)
            return out

        # expressions
        case Let(_, bound, body):
            return free_vars(bound) | free_vars(body)
        case LetNew(_, locvar, body):
            return free_vars(body) - {locvar}
        case If(c, t1, t2):
            return free_vars(c) | free_vars(t1) | free_vars(t2)
        case Unpack(_, refvar, body):
            return free_vars(body) - {refvar}
        case Call(callee, ref_args, _, _):
            out = free_vars(callee)
            for ra in ref_args:
                out |= free_vars(ra)
            return out
        case Assign(_, rhs):
            return free_vars(rhs)
        case BorrowStrong(_) | BorrowMut(_) | BorrowShr(_) | Deref(_) | VarRef(_):
            return set()
        case Val(value):
            return free_vars(value)

        # values
        case RecFn(_, refparams, _, body):
            return free_vars(body) - {name for name, _ in refparams}
        case BoolLit(_) | IntLit(_) | Poison() | TaggedPtr(_, _) | PrimOp(_):
            return set()
        case VecVal(_, payload):
            return free_vars(payload)
        case VecNew() | VecPush() | VecIndexMut():
            return set()

        case _:
            raise TypeError(f"free_vars: unsupported node {t!r}")


# ---------------------------------------------------------------------------
# Substitution of refinement expressions for refinement variables

# subst_parallel, fold_constants and constraints.apply_solution_expr rebuild
# terms with an explicit match rather than a generic children/rebuild pair.
# subst_parallel is the fixpoint's hottest walk: written over `children`
# plus a rebuild, it cost 14 % of perfbench sweep programs_per_s and 7 % of
# corpus (3 pairs of 12 s runs, 2-core VM, CPython 3.11).  With it explicit,
# a rebuild would have one caller.

def subst_parallel(target, mapping: dict):
    """Simultaneous substitution of refinement expressions for variables;
    binders shadow.  Required wherever replacement expressions may mention
    the variables being replaced (parameter instantiation)."""
    if not mapping:
        return target
    match target:
        case Var(n):
            return mapping.get(n, target)
        case IntConst(_) | BoolConst(_) | LocConst(_):
            return target
        case Eq(l, r):
            return Eq(subst_parallel(l, mapping), subst_parallel(r, mapping))
        case Not(arg):
            return Not(subst_parallel(arg, mapping))
        case BinBool(op, l, r):
            return BinBool(op, subst_parallel(l, mapping), subst_parallel(r, mapping))
        case BinArith(op, l, r):
            return BinArith(op, subst_parallel(l, mapping), subst_parallel(r, mapping))
        case Cmp(op, l, r):
            return Cmp(op, subst_parallel(l, mapping), subst_parallel(r, mapping))
        case KApp(kvar, args):
            return KApp(kvar, tuple(subst_parallel(a, mapping) for a in args))

        case ConcreteLoc(_):
            return target
        case AbstractLoc(n):
            if n not in mapping:
                return target
            return _loc_of_refexpr(mapping[n])

        case Indexed(base, idx):
            return Indexed(
                subst_parallel(base, mapping), subst_parallel(idx, mapping)
            )
        case Exists(binder, base, pred):
            base2 = subst_parallel(base, mapping)
            inner = {k: v for k, v in mapping.items() if k != binder}
            return Exists(binder, base2, subst_parallel(pred, inner))
        case StrongPtr(loc):
            return StrongPtr(subst_parallel(loc, mapping))
        case Ref(mode, pointee):
            return Ref(mode, subst_parallel(pointee, mapping))
        case Uninit(_):
            return target
        case FnSig(refparams, requires, in_locs, args, ret, out_locs):
            bound = {n for n, _ in refparams}
            inner = {k: v for k, v in mapping.items() if k not in bound}
            if not inner:
                return target
            return FnSig(
                refparams,
                subst_parallel(requires, inner),
                subst_parallel(in_locs, inner),
                tuple(subst_parallel(a, inner) for a in args),
                subst_parallel(ret, inner),
                subst_parallel(out_locs, inner),
            )

        case IntBase() | BoolBase():
            return target
        case VecBase(elem):
            return VecBase(subst_parallel(elem, mapping))

        case LocCtx(items):
            return LocCtx(
                tuple(
                    (subst_parallel(l, mapping), subst_parallel(t, mapping))
                    for l, t in items
                )
            )

        case _:
            raise TypeError(f"subst_parallel: unsupported node {target!r}")


def subst(target, name: str, repl: RefExpr):
    """Capture-avoiding substitution [repl/name]; binders shadow.  A
    refinement context also drops the substituted binder; every other node
    gets exactly subst_parallel(target, {name: repl})."""
    mapping = {name: repl}
    match target:
        case RefCtx(entries):
            out = []
            for entry in entries:
                if isinstance(entry, Bind):
                    if entry.name == name:
                        # the paper's table drops the substituted binder
                        continue
                    out.append(entry)
                else:
                    out.append(Assume(subst_parallel(entry.pred, mapping)))
            return RefCtx(tuple(out))

        case dict() as dyn:
            return {k: subst_parallel(t, mapping) for k, t in dyn.items()}

        case _:
            return subst_parallel(target, mapping)


def _loc_of_refexpr(e: RefExpr) -> Loc:
    if isinstance(e, Var):
        return AbstractLoc(e.name)
    if isinstance(e, LocConst):
        return ConcreteLoc(e.loc_id)
    raise SubstError(f"cannot use {e!r} as a location")


def subst_refexpr_in_expr(e: Expr, name: str, repl: RefExpr) -> Expr:
    """Substitute a refinement expression into the refinement positions of a
    program expression; unpack, let-new, and rec binders shadow."""
    rec = lambda x: subst_refexpr_in_expr(x, name, repl)
    match e:
        case Unpack(x, refvar, body, span):
            if refvar == name:
                return e
            return Unpack(x, refvar, rec(body), span)
        case Let(x, bound, body, span):
            return Let(x, rec(bound), rec(body), span)
        case LetNew(x, locvar, body, span):
            if locvar == name:
                return e
            return LetNew(x, locvar, rec(body), span)
        case VarRef(_):
            return e
        case If(c, t1, t2, span):
            return If(rec(c), rec(t1), rec(t2), span)
        case Call(callee, ref_args, args, type_args, span):
            return Call(
                rec(callee),
                tuple(subst(ra, name, repl) for ra in ref_args),
                tuple(rec(a) for a in args),
                type_args,
                span,
            )
        case Assign(place, rhs, span):
            return Assign(place, rec(rhs), span)
        case BorrowStrong(_) | BorrowMut(_) | BorrowShr(_) | Deref(_):
            return e
        case Val(RecFn(f, refparams, params, body, sig, vspan), span):
            if name in {n for n, _ in refparams}:
                return e
            return Val(RecFn(f, refparams, params, rec(body), sig, vspan), span)
        case Val(_):
            return e
        case _:
            raise TypeError(f"subst_refexpr_in_expr: unsupported node {e!r}")


# ---------------------------------------------------------------------------
# Substitution of a value for a program variable

def _subst_value_in_place(p: Place, name: str, v: Value) -> Place:
    if isinstance(p, PVar) and p.name == name:
        if isinstance(v, TaggedPtr):
            return PPtr(v.loc_id, v.tag)
        return PBad(f"non-pointer value substituted for place '{name}'")
    return p


def subst_value_in_expr(e: Expr, name: str, v: Value) -> Expr:
    """Substitute a closed value for a program variable.  The unpack case
    dissolves the unpack, additionally substituting interp(v) for the
    refinement binder; SubstError if interp(v) is undefined there."""
    rec = lambda x: subst_value_in_expr(x, name, v)
    match e:
        case Unpack(x, refvar, body, span):
            if x == name:
                iv = interp(v)
                if iv is None:
                    raise SubstError(
                        f"unpack of '{x}' against a value with no refinement index"
                    )
                return subst_refexpr_in_expr(rec(body), refvar, iv)
            return Unpack(x, refvar, rec(body), span)
        case Let(x, bound, body, span):
            if x == name:
                return Let(x, rec(bound), body, span)
            return Let(x, rec(bound), rec(body), span)
        case LetNew(x, locvar, body, span):
            if x == name:
                return e
            return LetNew(x, locvar, rec(body), span)
        case VarRef(x, span):
            return Val(v, span) if x == name else e
        case If(c, t1, t2, span):
            return If(rec(c), rec(t1), rec(t2), span)
        case Call(callee, ref_args, args, type_args, span):
            return Call(rec(callee), ref_args, tuple(rec(a) for a in args), type_args, span)
        case Assign(place, rhs, span):
            return Assign(_subst_value_in_place(place, name, v), rec(rhs), span)
        case BorrowStrong(place, span):
            return BorrowStrong(_subst_value_in_place(place, name, v), span)
        case BorrowMut(place, span):
            return BorrowMut(_subst_value_in_place(place, name, v), span)
        case BorrowShr(place, span):
            return BorrowShr(_subst_value_in_place(place, name, v), span)
        case Deref(place, span):
            return Deref(_subst_value_in_place(place, name, v), span)
        case Val(RecFn(f, refparams, params, body, sig, vspan), span):
            if name == f or name in params:
                return e
            return Val(RecFn(f, refparams, params, rec(body), sig, vspan), span)
        case Val(_):
            return e
        case _:
            raise TypeError(f"subst_value_in_expr: unsupported node {e!r}")


# ---------------------------------------------------------------------------
# Helpers shared by the checker and the solver

def conj(preds: Iterable[RefExpr]) -> RefExpr:
    """Right-nested conjunction; empty conjunction is true."""
    out: Optional[RefExpr] = None
    for p in preds:
        out = p if out is None else BinBool("and", out, p)
    return out if out is not None else BoolConst(True)


def conjuncts(e: RefExpr) -> Tuple[RefExpr, ...]:
    if isinstance(e, BinBool) and e.op == "and":
        return conjuncts(e.lhs) + conjuncts(e.rhs)
    return (e,)


def fold_constants(e: RefExpr) -> RefExpr:
    """Light constant folding so indices like 0+1 compare equal to 1."""
    match e:
        case BinArith(op, l, r):
            l2, r2 = fold_constants(l), fold_constants(r)
            if isinstance(l2, IntConst) and isinstance(r2, IntConst):
                if op == "+":
                    return IntConst(l2.value + r2.value)
                if op == "-":
                    return IntConst(l2.value - r2.value)
                return IntConst(l2.value * r2.value)
            return BinArith(op, l2, r2)
        case Eq(l, r):
            return Eq(fold_constants(l), fold_constants(r))
        case Cmp(op, l, r):
            return Cmp(op, fold_constants(l), fold_constants(r))
        case Not(a):
            return Not(fold_constants(a))
        case BinBool(op, l, r):
            return BinBool(op, fold_constants(l), fold_constants(r))
        case KApp(kvar, args):
            return KApp(kvar, tuple(fold_constants(a) for a in args))
        case _:
            return e


def is_trivially_true(e: RefExpr) -> bool:
    e = fold_constants(e)
    if isinstance(e, BoolConst):
        return e.value
    if isinstance(e, Eq) and e.lhs == e.rhs:
        return True
    if isinstance(e, Cmp) and e.op in ("<=", ">=") and e.lhs == e.rhs:
        return True
    if isinstance(e, Cmp) and isinstance(e.lhs, IntConst) and isinstance(e.rhs, IntConst):
        a, b = e.lhs.value, e.rhs.value
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]
    return False


def contains_kapp(e: RefExpr) -> bool:
    return any(isinstance(x, KApp) for x in subterms(e))
