"""Sort checking, free refinement variables, substitution of refinement
terms, and the value/refinement bridges (getsort, interp)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .syntax import (
    AbstractLoc,
    BaseType,
    BinArith,
    BinBool,
    BoolBase,
    BoolConst,
    BoolLit,
    Cmp,
    Eq,
    Exists,
    FnSig,
    Indexed,
    IntBase,
    IntConst,
    IntLit,
    KApp,
    LocCtx,
    Not,
    OPERATORS,
    Ref,
    RefExpr,
    Sort,
    StrongPtr,
    Type,
    Uninit,
    Value,
    Var,
    VecBase,
    VecVal,
    binary,
    subterms,
)


class SortError(Exception):
    pass


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


class PersistentCtx:
    """Base of the ordered contexts `RefCtx` and `ValCtx`: an immutable
    sequence of entries, some of them under a name, that grows in amortized
    constant time and finds the newest entry under a name in constant time.

    A context is a view of the first `_len` rows of a log, a list it shares
    with the contexts extended from it.  Extending the context that ends
    the log appends a row, so a straight-line body never copies.  Extending
    a context that some other extension has outgrown (one that
    `Checker.restore` brought back) first copies its own rows to a
    fresh log.  Rows are never changed, so a view keeps the entries it had.

    A row is `(name, entry, prev)`.  `_index` maps each name to its newest
    row in the log, and `prev` links the row before it under the same
    name, so a view that ends before that row steps back along the links.
    Equality, hashing and `repr` see only the entries, never the log.
    Extending one context from two threads at once is a race on the log.
    """

    __slots__ = ("_log", "_len", "_index", "_entries")

    def __init__(self, entries: Iterable = ()):
        self._log: list = []
        self._index: Dict[str, int] = {}
        self._entries = tuple(entries)
        for entry in self._entries:
            self._push(entry)
        self._len = len(self._log)

    @staticmethod
    def _name(entry) -> Optional[str]:
        raise NotImplementedError

    @staticmethod
    def _view(rows: list) -> tuple:
        """The entries of a view from its rows."""
        raise NotImplementedError

    def _push(self, entry) -> None:
        name, prev = self._name(entry), None
        if name is not None:
            prev = self._index.get(name)
            self._index[name] = len(self._log)
        self._log.append((name, entry, prev))

    def _find(self, name: str):
        """The newest entry under `name` in this view, or None."""
        i = self._index.get(name)
        while i is not None and i >= self._len:
            i = self._log[i][2]
        return None if i is None else self._log[i][1]

    def _extended(self, entry):
        new = object.__new__(type(self))
        if len(self._log) == self._len:
            new._log, new._index = self._log, self._index
        else:
            # the rows are this context's own, and their links stay in it
            new._log = log = self._log[: self._len]
            new._index = {row[0]: i for i, row in enumerate(log) if row[0] is not None}
        new._entries = None
        new._push(entry)
        new._len = len(new._log)
        return new

    def _all(self) -> tuple:
        if self._entries is None:
            self._entries = self._view(self._log[: self._len])
        return self._entries

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._all() == other._all()

    def __hash__(self) -> int:
        return hash(self._all())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.__match_args__[0]}={self._all()!r})"


class RefCtx(PersistentCtx):
    """Ordered refinement context of sort bindings and assumptions.  A name
    bound twice (which `wf_refctx` rejects) resolves to its later binding."""

    __slots__ = ()
    __match_args__ = ("entries",)

    @staticmethod
    def _name(entry) -> Optional[str]:
        return entry.name if isinstance(entry, Bind) else None

    @staticmethod
    def _view(rows: list) -> tuple:
        return tuple(entry for _, entry, _ in rows)

    @property
    def entries(self) -> Tuple[CtxEntry, ...]:
        return self._all()

    def bind(self, name: str, sort: Sort) -> "RefCtx":
        return self._extended(Bind(name, sort))

    def assume(self, pred: RefExpr) -> "RefCtx":
        return self._extended(Assume(pred))

    def sort_of(self, name: str) -> Optional[Sort]:
        entry = self._find(name)
        return None if entry is None else entry.sort

    def domain(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self.entries if isinstance(e, Bind))

    def binds(self) -> Tuple[Bind, ...]:
        return tuple(e for e in self.entries if isinstance(e, Bind))

    def assumptions(self) -> Tuple[RefExpr, ...]:
        return tuple(e.pred for e in self.entries if isinstance(e, Assume))

    def __len__(self) -> int:
        return self._len


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
                raise SortError(f"unbound refinement variable '{name}'")
            return sort
        case IntConst(_):
            return Sort.INT
        case BoolConst(_):
            return Sort.BOOL
        case Not(arg):
            if sortcheck(ctx, arg) != Sort.BOOL:
                raise SortError("negation of a non-boolean")
            return Sort.BOOL
        case KApp(kvar, args):
            if len(args) != len(kvar.params):
                raise SortError(f"{kvar.name} expects {len(kvar.params)} args")
            for arg, (_, psort) in zip(args, kvar.params):
                if sortcheck(ctx, arg) != psort:
                    raise SortError(f"ill-sorted argument to {kvar.name}")
            return Sort.BOOL
        case BinBool():
            # left to right: the first operand of the wrong sort is reported
            op = binary(e)[0]
            for side in chain_operands(e):
                got = sortcheck(ctx, side)
                if got != Sort.BOOL:
                    raise SortError(op.mismatch.format(Sort.BOOL, got))
            return Sort.BOOL
    parts = binary(e)
    if parts is None:
        raise SortError(f"unknown refinement term {e!r}")
    op, lhs, rhs = parts
    # left to right: the first operand of the wrong sort is reported, and
    # an operator over the same sort on both sides takes the left one's
    want = op.operand
    for side in (lhs, rhs):
        got = sortcheck(ctx, side)
        want = want or got
        if got != want:
            raise SortError(op.mismatch.format(want, got))
    return op.result


# ---------------------------------------------------------------------------
# Free refinement variables

def free_vars(t) -> Set[str]:
    match t:
        # refinement expressions
        case RefExpr():
            return {x.name for x in subterms(t) if isinstance(x, Var)}

        # locations
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

        case _:
            raise TypeError(f"free_vars: unsupported node {t!r}")


# ---------------------------------------------------------------------------
# Substitution of refinement expressions for refinement variables

# subst_parallel and fold_constants rebuild terms with an explicit match
# rather than a generic children/rebuild pair.
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
        case IntConst(_) | BoolConst(_):
            return target
        case Eq(l, r):
            return Eq(subst_parallel(l, mapping), subst_parallel(r, mapping))
        case Not(arg):
            return Not(subst_parallel(arg, mapping))
        case BinBool(op):
            first, *rest = chain_operands(target)
            out = subst_parallel(first, mapping)
            for operand in rest:
                out = BinBool(op, out, subst_parallel(operand, mapping))
            return out
        case BinArith(op, l, r):
            return BinArith(op, subst_parallel(l, mapping), subst_parallel(r, mapping))
        case Cmp(op, l, r):
            return Cmp(op, subst_parallel(l, mapping), subst_parallel(r, mapping))
        case KApp(kvar, args):
            return KApp(kvar, tuple(subst_parallel(a, mapping) for a in args))

        case AbstractLoc(n):
            if n not in mapping:
                return target
            loc = as_loc(mapping[n])
            if loc is None:
                raise SubstError(f"cannot use {mapping[n]!r} as a location")
            return loc

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
    """Capture-avoiding substitution [repl/name]; binders shadow.  Exactly
    subst_parallel(target, {name: repl})."""
    return subst_parallel(target, {name: repl})


def as_loc(e: RefExpr) -> Optional[AbstractLoc]:
    """The location that `e` names, or None if `e` names none."""
    return AbstractLoc(e.name) if isinstance(e, Var) else None


# ---------------------------------------------------------------------------
# Helpers shared by the checker and the solver

def conj(preds: Iterable[RefExpr]) -> RefExpr:
    """Conjunction nested on the left, ((p1 and p2) and p3); empty
    conjunction is true."""
    out: Optional[RefExpr] = None
    for p in preds:
        out = p if out is None else BinBool("and", out, p)
    return out if out is not None else BoolConst(True)


def chain_operands(e: BinBool) -> List[RefExpr]:
    """The operands of the chain of `e.op` nested on its left operand that
    `e` heads, left to right: `(a && b) && c` gives [a, b, c].  The walks
    over a chain that `conj` builds loop over these operands, so its
    length is not bounded by the recursion limit."""
    rights = []
    node: RefExpr = e
    while isinstance(node, BinBool) and node.op == e.op:
        rights.append(node.rhs)
        node = node.lhs
    rights.append(node)
    rights.reverse()
    return rights


def conjuncts(e: RefExpr) -> Tuple[RefExpr, ...]:
    if isinstance(e, BinBool) and e.op == "and":
        return tuple(c for operand in chain_operands(e) for c in conjuncts(operand))
    return (e,)


def fold_constants(e: RefExpr) -> RefExpr:
    """Light constant folding so indices like 0+1 compare equal to 1."""
    match e:
        case BinArith(op, l, r):
            l2, r2 = fold_constants(l), fold_constants(r)
            if isinstance(l2, IntConst) and isinstance(r2, IntConst):
                return IntConst(OPERATORS[op].value(l2.value, r2.value))
            return BinArith(op, l2, r2)
        case Eq(l, r):
            return Eq(fold_constants(l), fold_constants(r))
        case Cmp(op, l, r):
            return Cmp(op, fold_constants(l), fold_constants(r))
        case Not(a):
            return Not(fold_constants(a))
        case BinBool(op):
            first, *rest = chain_operands(e)
            out = fold_constants(first)
            for operand in rest:
                out = BinBool(op, out, fold_constants(operand))
            return out
        case KApp(kvar, args):
            return KApp(kvar, tuple(fold_constants(a) for a in args))
        case _:
            return e


def is_trivially_true(e: RefExpr) -> bool:
    """Whether `e` holds syntactically.  `e` must already be folded by
    `fold_constants`: `0 + 1 = 1` unfolded is not recognized."""
    if isinstance(e, BoolConst):
        return e.value
    if isinstance(e, Eq) and e.lhs == e.rhs:
        return True
    if isinstance(e, Cmp) and e.op in ("<=", ">=") and e.lhs == e.rhs:
        return True
    if isinstance(e, Cmp) and isinstance(e.lhs, IntConst) and isinstance(e.rhs, IntConst):
        return OPERATORS[e.op].value(e.lhs.value, e.rhs.value)
    return False


def contains_kapp(e: RefExpr) -> bool:
    return any(isinstance(x, KApp) for x in subterms(e))
