"""Small-step interpreter with the Stacked Borrows aliasing discipline.

Each location carries a stack of tagged permission items; reads, writes,
reborrows, allocation, and deallocation update the stacks and report an
aliasing violation when an access is not granted.  Poison used in any way
that affects evaluation gets the machine stuck.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .builtins import BUILTIN_VALUES, prim_apply
from .logic import SubstError, subst_value_in_expr
from .syntax import (
    Assign,
    BoolLit,
    BorrowMut,
    BorrowShr,
    BorrowStrong,
    Call,
    Deref,
    Expr,
    If,
    IntLit,
    Let,
    LetNew,
    PBad,
    Place,
    Poison,
    PPtr,
    PrimOp,
    Program,
    RecFn,
    TaggedPtr,
    Unpack,
    Val,
    Value,
    VarRef,
    VecIndexMut,
    VecNew,
    VecPush,
    VecVal,
)


class Perm(Enum):
    UNIQUE = "Unique"
    SHARED_RO = "SharedRO"
    DISABLED = "Disabled"


@dataclass(frozen=True)
class StackItem:
    perm: Perm
    tag: int

    def __str__(self) -> str:
        return f"({self.perm.value},{self.tag})"


@dataclass
class AliasError(Exception):
    event: str  # "read" | "write" | "reborrow" | "dealloc"
    loc: int
    tag: int

    def __str__(self) -> str:
        return f"aliasing violation on {self.event}: loc={self.loc} tag={self.tag}"


@dataclass
class StuckError(Exception):
    reason: str

    def __str__(self) -> str:
        return self.reason


@dataclass
class TraceEvent:
    step: int
    event: str
    loc: int
    tag: int
    stack: Tuple[StackItem, ...]

    def render(self) -> str:
        stack = "[" + " ".join(str(i) for i in self.stack) + "]"
        return f"{self.step} {self.event} loc={self.loc} tag={self.tag} stack={stack}"


@dataclass
class MachineState:
    heap: Dict[int, Value] = field(default_factory=dict)
    stacks: Dict[int, List[StackItem]] = field(default_factory=dict)
    next_tag: int = 0
    next_loc: int = 0
    trace: List[TraceEvent] = field(default_factory=list)
    step_count: int = 0
    rule_counter: Dict[str, int] = field(default_factory=dict)

    def log(self, event: str, loc: int, tag: int) -> None:
        self.trace.append(
            TraceEvent(
                self.step_count,
                event,
                loc,
                tag,
                tuple(self.stacks.get(loc, ())),
            )
        )

    def count_rule(self, rule: str) -> None:
        self.rule_counter[rule] = self.rule_counter.get(rule, 0) + 1

    def check_invariants(self) -> None:
        assert set(self.heap) == set(self.stacks), "heap/stack domains differ"
        for loc, stack in self.stacks.items():
            tags = [item.tag for item in stack]
            assert len(tags) == len(set(tags)), f"duplicate tags at {loc}"
            assert all(t < self.next_tag for t in tags), "stale tag counter"


# ---------------------------------------------------------------------------
# Stacked-borrows transitions

def sb_alloc(st: MachineState, n: int) -> Tuple[int, int]:
    """Allocate n fresh contiguous cells holding poison, all granted to one
    fresh Unique tag; returns (first location, tag)."""
    base = st.next_loc
    st.next_loc += n
    tag = st.next_tag
    st.next_tag += 1
    for i in range(n):
        st.heap[base + i] = Poison()
        st.stacks[base + i] = [StackItem(Perm.UNIQUE, tag)]
        st.log("alloc", base + i, tag)
    return base, tag


def _find_granting(stack: List[StackItem], tag: int, write: bool) -> Optional[int]:
    for i in range(len(stack) - 1, -1, -1):
        item = stack[i]
        if item.tag != tag:
            continue
        if item.perm == Perm.DISABLED:
            return None
        if write and item.perm != Perm.UNIQUE:
            return None
        return i
    return None


def sb_read(st: MachineState, loc: int, tag: int) -> None:
    """Read access: every Unique item strictly above the granting item
    becomes Disabled; shared items survive."""
    stack = st.stacks.get(loc)
    if stack is None:
        raise StuckError(f"read from unallocated location {loc}")
    idx = _find_granting(stack, tag, write=False)
    if idx is None:
        st.log("read-fail", loc, tag)
        raise AliasError("read", loc, tag)
    for i in range(idx + 1, len(stack)):
        if stack[i].perm == Perm.UNIQUE:
            stack[i] = StackItem(Perm.DISABLED, stack[i].tag)
    st.log("read", loc, tag)


def sb_write(st: MachineState, loc: int, tag: int) -> None:
    """Write access: pop every item strictly above the granting Unique."""
    stack = st.stacks.get(loc)
    if stack is None:
        raise StuckError(f"write to unallocated location {loc}")
    idx = _find_granting(stack, tag, write=True)
    if idx is None:
        st.log("write-fail", loc, tag)
        raise AliasError("write", loc, tag)
    del stack[idx + 1 :]
    st.log("write", loc, tag)


def sb_reborrow(st: MachineState, loc: int, from_tag: int, mode: str) -> int:
    """Reborrow from an existing tag: mutable reborrows perform a write
    access then push Unique; shared reborrows perform a read access then
    push SharedRO.  Returns the new tag."""
    stack = st.stacks.get(loc)
    if stack is None:
        raise StuckError(f"reborrow at unallocated location {loc}")
    try:
        if mode == "mut":
            sb_write(st, loc, from_tag)
        else:
            sb_read(st, loc, from_tag)
    except AliasError:
        raise AliasError("reborrow", loc, from_tag)
    new_tag = st.next_tag
    st.next_tag += 1
    stack.append(StackItem(Perm.UNIQUE if mode == "mut" else Perm.SHARED_RO, new_tag))
    st.log("reborrow", loc, new_tag)
    return new_tag


def sb_dealloc(st: MachineState, loc: int, n: int) -> None:
    """Remove n contiguous cells from the heap and the stack map; later
    accesses to them get the machine stuck."""
    for i in range(n):
        if loc + i not in st.heap:
            raise StuckError(f"dealloc of unallocated location {loc + i}")
        st.log("dealloc", loc + i, -1)
        del st.heap[loc + i]
        del st.stacks[loc + i]


# ---------------------------------------------------------------------------
# Small-step evaluation

@dataclass
class StepResult:
    kind: str  # "reduced" | "done" | "alias" | "stuck"
    expr: Optional[Expr] = None
    value: Optional[Value] = None
    error: Optional[AliasError] = None
    reason: str = ""


def _is_value(e: Expr) -> bool:
    return isinstance(e, Val)


def step(st: MachineState, e: Expr) -> StepResult:
    """One call-by-value reduction (leftmost redex via recursive descent)."""
    try:
        reduced = _step(st, e)
    except AliasError as err:
        return StepResult("alias", error=err)
    except (StuckError, SubstError) as err:
        return StepResult("stuck", reason=str(err))
    if reduced is None:
        assert isinstance(e, Val)
        return StepResult("done", value=e.value)
    return StepResult("reduced", expr=reduced)


def _step(st: MachineState, e: Expr) -> Optional[Expr]:
    match e:
        case Val(_):
            return None

        case VarRef(name):
            raise StuckError(f"free variable '{name}' at runtime")

        case LetNew(x, _locvar, body):
            st.count_rule("let-new")
            loc, tag = sb_alloc(st, 1)
            return subst_value_in_expr(body, x, TaggedPtr(loc, tag))

        case Let(x, Val(v), body):
            st.count_rule("let")
            return subst_value_in_expr(body, x, v)
        case Let(x, bound, body, span):
            inner = _step(st, bound)
            if inner is None:
                raise StuckError("let: no rule applies")
            return Let(x, inner, body, span)

        case Unpack(_, _, _):
            # unpacks dissolve through value substitution; a surviving one
            # means its variable never got a value
            raise StuckError("unpack of an unbound variable")

        case If(Val(BoolLit(b)), then, els):
            st.count_rule("if")
            return then if b else els
        case If(Val(_), _, _):
            raise StuckError("if: condition is not a boolean")
        case If(cond, then, els, span):
            inner = _step(st, cond)
            if inner is None:
                raise StuckError("if: no rule applies")
            return If(inner, then, els, span)

        case Assign(place, Val(v)):
            st.count_rule("assign")
            loc, tag = _place_ptr(place, "assign")
            if loc not in st.heap:
                raise StuckError(f"assignment to deallocated location {loc}")
            sb_write(st, loc, tag)
            st.heap[loc] = v
            return Val(Poison())
        case Assign(place, rhs, span):
            inner = _step(st, rhs)
            if inner is None:
                raise StuckError("assign: no rule applies")
            return Assign(place, inner, span)

        case BorrowStrong(place):
            st.count_rule("borrow-strong")
            loc, tag = _place_ptr(place, "&strg")
            new_tag = sb_reborrow(st, loc, tag, "mut")
            return Val(TaggedPtr(loc, new_tag))

        case BorrowMut(place):
            st.count_rule("borrow-mut")
            loc, tag = _place_ptr(place, "&mut")
            new_tag = sb_reborrow(st, loc, tag, "mut")
            return Val(TaggedPtr(loc, new_tag))

        case BorrowShr(place):
            st.count_rule("borrow-shr")
            loc, tag = _place_ptr(place, "&shr")
            new_tag = sb_reborrow(st, loc, tag, "shr")
            return Val(TaggedPtr(loc, new_tag))

        case Deref(place):
            st.count_rule("deref")
            loc, tag = _place_ptr(place, "deref")
            if loc not in st.heap:
                raise StuckError(f"dereference of deallocated location {loc}")
            sb_read(st, loc, tag)
            return Val(st.heap[loc])

        case Call(_, _, _, _, _):
            return _step_call(st, e)

        case _:
            raise StuckError(f"no rule applies to {type(e).__name__}")


def _place_ptr(place: Place, what: str) -> Tuple[int, int]:
    if isinstance(place, PPtr):
        return place.loc_id, place.tag
    if isinstance(place, PBad):
        raise StuckError(f"{what} through a non-pointer: {place.reason}")
    raise StuckError(f"{what} of an unresolved place")


def _step_call(st: MachineState, e: Call) -> Optional[Expr]:
    if not isinstance(e.callee, Val):
        inner = _step(st, e.callee)
        if inner is None:
            raise StuckError("call: no rule applies to the callee")
        return Call(inner, e.ref_args, e.args, e.type_args, e.span)
    for i, arg in enumerate(e.args):
        if not isinstance(arg, Val):
            inner = _step(st, arg)
            if inner is None:
                raise StuckError("call: no rule applies to an argument")
            new_args = e.args[:i] + (inner,) + e.args[i + 1 :]
            return Call(e.callee, e.ref_args, new_args, e.type_args, e.span)

    callee = e.callee.value
    args = [a.value for a in e.args]  # type: ignore[union-attr]

    match callee:
        case RecFn(fname, refparams, params, body, _sig):
            st.count_rule("call-rec")
            if len(args) != len(params):
                raise StuckError(f"call of '{fname}' with wrong arity")
            out = body
            out = subst_value_in_expr(out, fname, callee)
            for pname, v in zip(params, args):
                out = subst_value_in_expr(out, pname, v)
            from .logic import subst_refexpr_in_expr

            if refparams and len(e.ref_args) not in (0, len(refparams)):
                raise StuckError(f"call of '{fname}' with wrong refinement arity")
            for (aname, _), arg_expr in zip(refparams, e.ref_args):
                out = subst_refexpr_in_expr(out, aname, arg_expr)
            return out

        case PrimOp(op):
            st.count_rule("call-prim")
            if len(args) != 2:
                raise StuckError(f"primitive '{op}' takes two arguments")
            if not all(isinstance(a, IntLit) for a in args):
                raise StuckError(f"primitive '{op}' on a non-integer")
            result = prim_apply(op, args[0].value, args[1].value)
            return Val(IntLit(result) if isinstance(result, int) and not isinstance(result, bool) else BoolLit(result))

        case VecNew():
            st.count_rule("vec-new")
            if args:
                raise StuckError("vec_new takes no arguments")
            return Val(VecVal(0, Poison()))

        case VecPush():
            return _step_vec_push(st, e, args)

        case VecIndexMut():
            return _step_vec_index_mut(st, e, args)

        case _:
            raise StuckError("call of a non-function value")


def _step_vec_push(st: MachineState, e: Call, args: List[Value]) -> Expr:
    st.count_rule("vec-push")
    if len(args) != 2:
        raise StuckError("vec_push takes a vector pointer and a value")
    ptr, new_elem = args
    if not isinstance(ptr, TaggedPtr):
        raise StuckError("vec_push: first argument is not a pointer")
    cell = st.heap.get(ptr.loc_id)
    if cell is None:
        raise StuckError("vec_push: dangling vector pointer")
    if not isinstance(cell, VecVal):
        raise StuckError("vec_push: target does not hold a vector")
    sb_write(st, ptr.loc_id, ptr.tag)
    if cell.length == 0:
        new_loc, new_tag = sb_alloc(st, 1)
        st.heap[new_loc] = new_elem
        st.heap[ptr.loc_id] = VecVal(1, TaggedPtr(new_loc, new_tag))
        return Val(Poison())
    payload = cell.payload
    if not isinstance(payload, TaggedPtr):
        raise StuckError("vec_push: non-empty vector without a buffer")
    old = [st.heap.get(payload.loc_id + i) for i in range(cell.length)]
    if any(v is None for v in old):
        raise StuckError("vec_push: vector buffer out of heap")
    sb_dealloc(st, payload.loc_id, cell.length)
    new_loc, new_tag = sb_alloc(st, cell.length + 1)
    for i, v in enumerate(old + [new_elem]):
        st.heap[new_loc + i] = v
    st.heap[ptr.loc_id] = VecVal(cell.length + 1, TaggedPtr(new_loc, new_tag))
    return Val(Poison())


def _step_vec_index_mut(st: MachineState, e: Call, args: List[Value]) -> Expr:
    st.count_rule("vec-index-mut")
    if len(args) != 2:
        raise StuckError("vec_index_mut takes a vector pointer and an index")
    ptr, idx = args
    if not isinstance(ptr, TaggedPtr):
        raise StuckError("vec_index_mut: first argument is not a pointer")
    if not isinstance(idx, IntLit):
        raise StuckError("vec_index_mut: index is not an integer")
    cell = st.heap.get(ptr.loc_id)
    if cell is None:
        raise StuckError("vec_index_mut: dangling vector pointer")
    if not isinstance(cell, VecVal):
        raise StuckError("vec_index_mut: target does not hold a vector")
    payload = cell.payload
    if not isinstance(payload, TaggedPtr):
        raise StuckError("vec_index_mut: empty vector has no elements")
    target = payload.loc_id + idx.value
    if target not in st.heap or not (0 <= idx.value < cell.length):
        raise StuckError(
            f"vec_index_mut: index {idx.value} outside a vector of length "
            f"{cell.length}"
        )
    sb_read(st, ptr.loc_id, ptr.tag)
    new_tag = sb_reborrow(st, target, payload.tag, "mut")
    return Val(TaggedPtr(target, new_tag))


# ---------------------------------------------------------------------------
# Driving

@dataclass
class RunOutcome:
    kind: str  # "done" | "alias" | "stuck" | "fuel"
    value: Optional[Value] = None
    error: Optional[AliasError] = None
    reason: str = ""
    steps: int = 0
    state: Optional[MachineState] = None

    def render(self) -> str:
        from .printer import print_value

        if self.kind == "done":
            return f"done: {print_value(self.value)} after {self.steps} step(s)"
        if self.kind == "alias":
            return f"alias error: {self.error} after {self.steps} step(s)"
        if self.kind == "stuck":
            return f"stuck: {self.reason} after {self.steps} step(s)"
        return f"fuel exhausted after {self.steps} step(s)"


def close_entry(program: Program) -> Expr:
    """Substitute top-level functions and built-in primitives into the
    entry expression."""
    if program.entry is None:
        raise ValueError("program has no entry expression")
    e = program.entry
    for decl in reversed(program.decls):
        fn = decl.fn if decl.fn.sig is not None else replace(decl.fn, sig=decl.sig)
        e = subst_value_in_expr(e, decl.name, fn)
    for name, value in BUILTIN_VALUES.items():
        e = subst_value_in_expr(e, name, value)
    return e


def run(
    program: Program,
    fuel: int = 100_000,
    check_invariants: bool = False,
) -> RunOutcome:
    st = MachineState()
    e = close_entry(program)
    for n in range(fuel):
        st.step_count = n
        result = step(st, e)
        if result.kind == "done":
            return RunOutcome("done", value=result.value, steps=n, state=st)
        if result.kind == "alias":
            return RunOutcome("alias", error=result.error, steps=n, state=st)
        if result.kind == "stuck":
            return RunOutcome("stuck", reason=result.reason, steps=n, state=st)
        e = result.expr
        if check_invariants:
            st.check_invariants()
    return RunOutcome("fuel", steps=fuel, state=st)
