"""AST for the core language: refinement terms, types, expressions, values."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Dict, Iterator, Optional, Tuple


class Sort(Enum):
    INT = "int"
    BOOL = "bool"
    LOC = "loc"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Span:
    """Half-open source region; line/col are 1-based."""

    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _span_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Refinement expressions

class RefExpr:
    pass


@dataclass(frozen=True)
class Var(RefExpr):
    name: str


@dataclass(frozen=True)
class IntConst(RefExpr):
    value: int


@dataclass(frozen=True)
class BoolConst(RefExpr):
    value: bool


@dataclass(frozen=True)
class Eq(RefExpr):
    lhs: RefExpr
    rhs: RefExpr


@dataclass(frozen=True)
class Not(RefExpr):
    arg: RefExpr


@dataclass(frozen=True)
class BinBool(RefExpr):
    op: str  # "and" | "or"
    lhs: RefExpr
    rhs: RefExpr


@dataclass(frozen=True)
class BinArith(RefExpr):
    op: str  # "+" | "-" | "*"
    lhs: RefExpr
    rhs: RefExpr


@dataclass(frozen=True)
class Cmp(RefExpr):
    """Integer comparison; an extension over plain equality so the worked
    signatures (v >= 0, 0 <= b && b < a) are expressible."""

    op: str  # "<" | "<=" | ">" | ">="
    lhs: RefExpr
    rhs: RefExpr


@dataclass(frozen=True)
class KApp(RefExpr):
    """Application of an unknown predicate; only created during inference,
    never by the parser.  Solving replaces these with concrete predicates."""

    kvar: "KVarDecl"
    args: Tuple[RefExpr, ...]


@dataclass(frozen=True)
class KVarDecl:
    """An unknown predicate with a fixed parameter list (name, sort)."""

    name: str
    params: Tuple[Tuple[str, Sort], ...]


TRUE = BoolConst(True)

# The operator grammar of refinement terms.  Every level associates to the
# left, and a comparison takes no comparison as an operand.  Atoms (names,
# constants, parentheses, `!a`, `-a`) bind tightest; the printer puts `!a`
# in parentheses above NOT_LEVEL.
CMP_LEVEL = 4
NOT_LEVEL = 3
ATOM_LEVEL = 7


@dataclass(frozen=True)
class Operator:
    """A binary operator of refinement terms: its text, its level (loosest
    first), the node it builds from its operands, the sort both operands
    must have (None: the same sort on both sides), the sort error for an
    operand of another sort (formatted with the sort wanted and the sort
    found), the sort it yields, and its value on its operands' values."""

    symbol: str
    level: int
    build: Callable[[RefExpr, RefExpr], RefExpr]
    operand: Optional[Sort]
    mismatch: str
    result: Sort
    value: Callable


# Each operator of refinement terms, written once.  The parser builds terms
# by each operator's level and node, the printer prints them by `binary`
# and the level, `logic.sortcheck` checks their operands' sorts,
# `oracle._sort_of_term` reads the sort they yield, and `oracle.eval_closed`,
# `logic.fold_constants`, `logic.is_trivially_true` and the builtins
# (`builtins.BUILTIN_OPS`, signatures and run-time values) apply their value.
OPERATORS: Dict[str, Operator] = {
    op.symbol: op
    for op in (
        Operator("||", 1, partial(BinBool, "or"), Sort.BOOL,
                 "boolean operator on a non-boolean", Sort.BOOL, lambda a, b: a or b),
        Operator("&&", 2, partial(BinBool, "and"), Sort.BOOL,
                 "boolean operator on a non-boolean", Sort.BOOL, lambda a, b: a and b),
        Operator("=", CMP_LEVEL, Eq, None,
                 "equality between {} and {}", Sort.BOOL, operator.eq),
        Operator("!=", CMP_LEVEL, lambda lhs, rhs: Not(Eq(lhs, rhs)), None,
                 "equality between {} and {}", Sort.BOOL, operator.ne),
        *(
            Operator(op, CMP_LEVEL, partial(Cmp, op), Sort.INT,
                     "comparison of a non-integer", Sort.BOOL, value)
            for op, value in (
                ("<", operator.lt), ("<=", operator.le),
                (">", operator.gt), (">=", operator.ge),
            )
        ),
        *(
            Operator(op, level, partial(BinArith, op), Sort.INT,
                     "arithmetic on a non-integer", Sort.INT, value)
            for op, level, value in (
                ("+", 5, operator.add), ("-", 5, operator.sub), ("*", 6, operator.mul),
            )
        ),
    )
}


def binary(e: RefExpr) -> Optional[Tuple[Operator, RefExpr, RefExpr]]:
    """The operator that builds `e`, with its operands, or None."""
    match e:
        case BinArith(op, lhs, rhs) | Cmp(op, lhs, rhs):
            return OPERATORS[op], lhs, rhs
        case BinBool(op, lhs, rhs):
            return OPERATORS["&&" if op == "and" else "||"], lhs, rhs
        case Eq(lhs, rhs):
            return OPERATORS["="], lhs, rhs
        case Not(Eq(lhs, rhs)):
            return OPERATORS["!="], lhs, rhs
    return None


def children(e: RefExpr) -> Tuple[RefExpr, ...]:
    """The immediate refinement subterms of `e`, left to right.  This is the
    only read-only code that knows the node shapes; scans go through
    `subterms`."""
    # leaves first and no positional captures: both measurably speed up the
    # scans over the solver's hypotheses, which are mostly leaves
    match e:
        case Var() | IntConst() | BoolConst():
            return ()
        case Eq() | BinBool() | BinArith() | Cmp():
            return (e.lhs, e.rhs)
        case Not():
            return (e.arg,)
        case KApp():
            return e.args
        case _:
            raise TypeError(f"children: not a refinement term {e!r}")


def subterms(e: RefExpr) -> Iterator[RefExpr]:
    """`e` and all its refinement subterms in pre-order, left to right; an
    explicit stack keeps deep terms clear of the recursion limit."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        kids = children(node)
        if kids:
            stack.extend(kids[::-1])


# ---------------------------------------------------------------------------
# Locations and types

@dataclass(frozen=True)
class AbstractLoc:
    """A location, named by a refinement variable of sort loc."""

    name: str


class BaseType:
    pass


@dataclass(frozen=True)
class IntBase(BaseType):
    pass


@dataclass(frozen=True)
class BoolBase(BaseType):
    pass


@dataclass(frozen=True)
class VecBase(BaseType):
    elem: "Type"


class Type:
    pass


@dataclass(frozen=True)
class Indexed(Type):
    base: BaseType
    idx: RefExpr


@dataclass(frozen=True)
class Exists(Type):
    """{binder. base[binder] | pred}"""

    binder: str
    base: BaseType
    pred: RefExpr


@dataclass(frozen=True)
class StrongPtr(Type):
    loc: AbstractLoc


@dataclass(frozen=True)
class Ref(Type):
    mode: str  # "mut" | "shr"
    pointee: Type


@dataclass(frozen=True)
class Uninit(Type):
    n: int


@dataclass(frozen=True)
class FnSig(Type):
    refparams: Tuple[Tuple[str, Sort], ...]
    requires: RefExpr
    in_locs: "LocCtx"
    args: Tuple[Type, ...]
    ret: Type
    out_locs: "LocCtx"


@dataclass(frozen=True)
class LocCtx:
    """Ordered association of locations with types; no duplicate locations."""

    items: Tuple[Tuple[AbstractLoc, Type], ...] = ()

    def lookup(self, loc: AbstractLoc) -> Optional[Type]:
        for l, t in self.items:
            if l == loc:
                return t
        return None

    def domain(self) -> Tuple[AbstractLoc, ...]:
        return tuple(l for l, _ in self.items)

    def bind(self, loc: AbstractLoc, typ: Type) -> "LocCtx":
        return LocCtx(self.items + ((loc, typ),))

    def update(self, loc: AbstractLoc, typ: Type) -> "LocCtx":
        return LocCtx(tuple((l, typ if l == loc else t) for l, t in self.items))

    def remove(self, *locs: AbstractLoc) -> "LocCtx":
        gone = set(locs)
        return LocCtx(tuple((l, t) for l, t in self.items if l not in gone))

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)


# ---------------------------------------------------------------------------
# Places, values, expressions

class Place:
    pass


@dataclass(frozen=True)
class PVar(Place):
    name: str


class Value:
    pass


@dataclass(frozen=True)
class RecFn(Value):
    fname: str
    refparams: Tuple[Tuple[str, Sort], ...]
    params: Tuple[str, ...]
    body: "Expr"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class BoolLit(Value):
    value: bool


@dataclass(frozen=True)
class IntLit(Value):
    value: int


@dataclass(frozen=True)
class Poison(Value):
    pass


@dataclass(frozen=True)
class TaggedPtr(Value):
    loc_id: int
    tag: int


@dataclass(frozen=True)
class VecVal(Value):
    """A vector of `length` cells starting at the payload pointer; the
    payload may be poison only when the vector is empty."""

    length: int
    payload: Value


@dataclass(frozen=True)
class Closure(Value):
    """A `rec` value at run time: the function and the environment its
    literal was evaluated in; run-time only, never parsed."""

    fn: RecFn
    env: Dict[str, Value]


@dataclass(frozen=True)
class VecNew(Value):
    pass


@dataclass(frozen=True)
class VecPush(Value):
    pass


@dataclass(frozen=True)
class VecIndexMut(Value):
    pass


@dataclass(frozen=True)
class PrimOp(Value):
    """Built-in arithmetic/comparison function value (add, sub, gt, ...)."""

    op: str


class Expr:
    pass


@dataclass(frozen=True)
class LetNew(Expr):
    name: str
    locvar: str
    body: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Let(Expr):
    name: str
    bound: Expr
    body: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Unpack(Expr):
    var: str
    refvar: str
    body: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Call(Expr):
    callee: Expr
    ref_args: Tuple[RefExpr, ...]
    args: Tuple[Expr, ...]  # A-values only: VarRef or Val
    type_args: Tuple[Type, ...] = ()
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Assign(Expr):
    place: Place
    rhs: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class BorrowStrong(Expr):
    place: Place
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class BorrowMut(Expr):
    place: Place
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class BorrowShr(Expr):
    place: Place
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Deref(Expr):
    place: Place
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class VarRef(Expr):
    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Val(Expr):
    value: Value
    span: Optional[Span] = _span_field()


def is_aval(e: Expr) -> bool:
    return isinstance(e, (VarRef, Val))


@dataclass(frozen=True)
class FnDecl:
    name: str
    sig: FnSig
    fn: RecFn
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Program:
    decls: Tuple[FnDecl, ...]
    entry: Optional[Expr] = None

