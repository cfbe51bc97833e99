"""AST for the core language: refinement terms, types, expressions, values."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, Optional, Tuple


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
class LocConst(RefExpr):
    loc_id: int


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

    def __str__(self) -> str:
        return self.name


TRUE = BoolConst(True)

# The operator grammar of refinement terms, read by the parser and the
# printer: the level of each binary operator, loosest first.  Every level
# associates to the left, and a comparison takes no comparison as an
# operand.  Atoms (names, constants, parentheses, `!a`, `-a`) bind
# tightest; the printer puts `!a` in parentheses above NOT_LEVEL.
CMP_LEVEL = 4
LEVELS = {
    "||": 1,
    "&&": 2,
    **dict.fromkeys(("=", "!=", "<", "<=", ">", ">="), CMP_LEVEL),
    "+": 5,
    "-": 5,
    "*": 6,
}
NOT_LEVEL = 3
ATOM_LEVEL = 7


def children(e: RefExpr) -> Tuple[RefExpr, ...]:
    """The immediate refinement subterms of `e`, left to right.  This is the
    only read-only code that knows the node shapes; scans go through
    `subterms`."""
    # leaves first and no positional captures: both measurably speed up the
    # scans over the solver's hypotheses, which are mostly leaves
    match e:
        case Var() | IntConst() | BoolConst() | LocConst():
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

class Loc:
    pass


@dataclass(frozen=True)
class ConcreteLoc(Loc):
    loc_id: int


@dataclass(frozen=True)
class AbstractLoc(Loc):
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
    loc: Loc


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

    items: Tuple[Tuple[Loc, Type], ...] = ()

    def lookup(self, loc: Loc) -> Optional[Type]:
        for l, t in self.items:
            if l == loc:
                return t
        return None

    def domain(self) -> Tuple[Loc, ...]:
        return tuple(l for l, _ in self.items)

    def bind(self, loc: Loc, typ: Type) -> "LocCtx":
        return LocCtx(self.items + ((loc, typ),))

    def update(self, loc: Loc, typ: Type) -> "LocCtx":
        return LocCtx(tuple((l, typ if l == loc else t) for l, t in self.items))

    def remove(self, loc: Loc) -> "LocCtx":
        return LocCtx(tuple((l, t) for l, t in self.items if l != loc))

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
    sig: Optional[FnSig] = None
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

