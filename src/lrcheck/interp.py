"""Environment machine for the core language under the Stacked Borrows
aliasing discipline.

`run` evaluates a program's entry on a CEK machine (Felleisen and Friedman):
the control is the expression in hand or the value just computed, the
environment maps program variables to values, and a stack of continuation
frames says what to do with the next value.  One loop drives it, so neither
long let chains nor deep nesting grow the Python stack.

A step is one rule firing: let, let-new, if, assign, a borrow, a
dereference, or a call (call-rec, call-prim and the vec rules).  Looking up
a variable, resolving a place and entering an unpack are administrative and
cost no fuel.  A run with fuel N fires at most N rules; a final value or a
stuck state reached after the N-th firing reports fuel exhaustion, with N
steps.

Locals live in one dict with an undo trail, and each frame records the
trail height it resumes at.  The entry starts from a copy of the global
table of builtins and top-level declarations.  A `rec` value is a closure
(Landin): the function together with the environment its literal was
evaluated in, or for a declaration the global table itself, so that
top-level functions may call each other in any order.  A call runs the
callee's body in a copy of that environment extended with the parameters
and the function's own name.

Each location carries a stack of tagged permission items; reads, writes,
reborrows, allocation, and deallocation update the stacks and report an
aliasing violation when an access is not granted.  Poison used in any way
that affects evaluation gets the machine stuck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .builtins import BUILTIN_VALUES, prim_apply
from .logic import interp
from .syntax import (
    Assign,
    BoolLit,
    BorrowMut,
    BorrowShr,
    BorrowStrong,
    Call,
    Closure,
    Deref,
    Expr,
    If,
    IntLit,
    Let,
    LetNew,
    Poison,
    PrimOp,
    Program,
    PVar,
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
    recording: bool = False  # whether log() keeps trace events

    def log(self, event: str, loc: int, tag: int) -> None:
        if not self.recording:
            return
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
# Rules

def _place_ptr(place: PVar, env: Dict[str, Value], what: str) -> Tuple[int, int]:
    if place.name not in env:
        raise StuckError(f"{what} of an unresolved place")
    ptr = env[place.name]
    if not isinstance(ptr, TaggedPtr):
        raise StuckError(f"{what} through non-pointer variable '{place.name}'")
    return ptr.loc_id, ptr.tag


# expression class -> (rule, what it is called in errors, reborrow mode)
_BORROWS = {
    BorrowStrong: ("borrow-strong", "&strg", "mut"),
    BorrowMut: ("borrow-mut", "&mut", "mut"),
    BorrowShr: ("borrow-shr", "&shr", "shr"),
}


def _access(st: MachineState, e: Expr, env: Dict[str, Value]) -> Value:
    """Fire the borrow or dereference rule of `e`."""
    if isinstance(e, Deref):
        st.count_rule("deref")
        loc, tag = _place_ptr(e.place, env, "deref")
        if loc not in st.heap:
            raise StuckError(f"dereference of deallocated location {loc}")
        sb_read(st, loc, tag)
        return st.heap[loc]
    if type(e) not in _BORROWS:
        raise StuckError(f"no rule applies to {type(e).__name__}")
    rule, what, mode = _BORROWS[type(e)]
    st.count_rule(rule)
    loc, tag = _place_ptr(e.place, env, what)
    return TaggedPtr(loc, sb_reborrow(st, loc, tag, mode))


def _enter_rec(
    st: MachineState, closure: Closure, call: Call, args: List[Value]
) -> Dict[str, Value]:
    """Fire call-rec: the environment the callee's body runs in.  The
    function's own name wins over a parameter, an earlier parameter over a
    later one of the same name, and a parameter over a captured variable."""
    st.count_rule("call-rec")
    fn = closure.fn
    if len(args) != len(fn.params):
        raise StuckError(f"call of '{fn.fname}' with wrong arity")
    if fn.refparams and len(call.ref_args) not in (0, len(fn.refparams)):
        raise StuckError(f"call of '{fn.fname}' with wrong refinement arity")
    env = dict(closure.env)
    env.update(zip(reversed(fn.params), reversed(args)))
    env[fn.fname] = closure
    return env


def _apply_builtin(st: MachineState, callee: Value, args: List[Value]) -> Value:
    match callee:
        case PrimOp(op):
            st.count_rule("call-prim")
            if len(args) != 2:
                raise StuckError(f"primitive '{op}' takes two arguments")
            if not all(isinstance(a, IntLit) for a in args):
                raise StuckError(f"primitive '{op}' on a non-integer")
            result = prim_apply(op, args[0].value, args[1].value)
            return IntLit(result) if isinstance(result, int) and not isinstance(result, bool) else BoolLit(result)

        case VecNew():
            st.count_rule("vec-new")
            if args:
                raise StuckError("vec_new takes no arguments")
            return VecVal(0, Poison())

        case VecPush():
            return _vec_push(st, args)

        case VecIndexMut():
            return _vec_index_mut(st, args)

        case _:
            raise StuckError("call of a non-function value")


def _vec_push(st: MachineState, args: List[Value]) -> Value:
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
        return Poison()
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
    return Poison()


def _vec_index_mut(st: MachineState, args: List[Value]) -> Value:
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
    return TaggedPtr(target, new_tag)


def _global_env(program: Program) -> Dict[str, Value]:
    """Builtins and top-level declarations by name; every declaration is
    closed over this one table, so it sees every declaration and itself."""
    table: Dict[str, Value] = dict(BUILTIN_VALUES)
    for decl in program.decls:
        table[decl.name] = Closure(decl.fn, table)
    return table


# ---------------------------------------------------------------------------
# The machine

# the fuel of a run, a check-and-run and a configuration that set none
DEFAULT_FUEL = 100_000


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


# Continuation frames are tuples tagged by their first item; h is the trail
# height of the environment the frame resumes in.
_LET = 0  # (_LET, name, body, h)
_IF = 1  # (_IF, then, els, h)
_ASSIGN = 2  # (_ASSIGN, place, h)
_CALL = 3  # (_CALL, call, values of the callee and arguments so far, h)
_RESTORE = 4  # (_RESTORE, env, trail): the caller's environment
_REDEX = 5  # (_REDEX, let-new, borrow or dereference): never on the stack

_UNBOUND = object()  # trail entry of a name that had no binding


def _bind(env: Dict[str, Value], trail: list, x: str, v: Value) -> None:
    trail.append((x, env.get(x, _UNBOUND)))
    env[x] = v


def _undo(env: Dict[str, Value], trail: list, height: int) -> None:
    while len(trail) > height:
        x, old = trail.pop()
        if old is _UNBOUND:
            del env[x]
        else:
            env[x] = old


def run_expr(
    st: MachineState,
    e: Expr,
    env: Dict[str, Value],
    fuel: int = DEFAULT_FUEL,
    check_invariants: bool = False,
) -> RunOutcome:
    """Evaluate `e` in `env` (name -> value, updated in place) starting from
    machine state `st`."""
    kont: list = []
    trail: list = []
    n = 0  # rules fired so far
    v: Optional[Value] = None
    try:
        while True:
            if e is not None:
                t = type(e)
                if t is Let:
                    kont.append((_LET, e.name, e.body, len(trail)))
                    e = e.bound
                    continue
                if t is Call:
                    kont.append((_CALL, e, [], len(trail)))
                    e = e.callee
                    continue
                if t is If:
                    kont.append((_IF, e.then, e.els, len(trail)))
                    e = e.cond
                    continue
                if t is Assign:
                    kont.append((_ASSIGN, e.place, len(trail)))
                    e = e.rhs
                    continue
                if t is VarRef:
                    if e.name not in env:
                        raise StuckError(f"free variable '{e.name}' at runtime")
                    v, e = env[e.name], None
                    continue
                if t is Val:
                    v, e = e.value, None
                    if isinstance(v, RecFn):
                        v = Closure(v, dict(env))
                    continue
                if t is Unpack:
                    if e.var not in env:
                        raise StuckError("unpack of an unbound variable")
                    if interp(env[e.var]) is None:
                        raise StuckError(
                            f"unpack of '{e.var}' against a value with no refinement index"
                        )
                    e = e.body
                    continue
                # let-new, a borrow or a dereference fires its rule at once
                frame, e = (_REDEX, e), None
            elif not kont:
                if n >= fuel:
                    break
                return RunOutcome("done", value=v, steps=n, state=st)
            else:
                # return v to the top frame
                frame = kont.pop()
                if frame[0] == _RESTORE:
                    env, trail = frame[1], frame[2]
                    continue
                if frame[0] == _CALL:
                    call, vals = frame[1], frame[2]
                    vals.append(v)
                    if len(vals) <= len(call.args):
                        _undo(env, trail, frame[3])
                        kont.append(frame)
                        e = call.args[len(vals) - 1]
                        continue
                elif frame[0] == _IF and not isinstance(v, BoolLit):
                    raise StuckError("if: condition is not a boolean")

            # fire the rule of frame
            if n >= fuel:
                break
            st.step_count = n
            kind = frame[0]
            if kind == _LET:
                st.count_rule("let")
                _undo(env, trail, frame[3])
                _bind(env, trail, frame[1], v)
                e = frame[2]
            elif kind == _IF:
                st.count_rule("if")
                _undo(env, trail, frame[3])
                e = frame[1] if v.value else frame[2]
            elif kind == _ASSIGN:
                st.count_rule("assign")
                _undo(env, trail, frame[2])
                loc, tag = _place_ptr(frame[1], env, "assign")
                if loc not in st.heap:
                    raise StuckError(f"assignment to deallocated location {loc}")
                sb_write(st, loc, tag)
                st.heap[loc] = v
                v = Poison()
            elif kind == _CALL and isinstance(vals[0], Closure):
                callee_env = _enter_rec(st, vals[0], call, vals[1:])
                # a tail call leaves the caller's environment unused
                if kont and kont[-1][0] != _RESTORE:
                    kont.append((_RESTORE, env, trail))
                env, trail = callee_env, []
                e = vals[0].fn.body
            elif kind == _CALL:
                v = _apply_builtin(st, vals[0], vals[1:])
            elif isinstance(frame[1], LetNew):
                st.count_rule("let-new")
                loc, tag = sb_alloc(st, 1)
                _bind(env, trail, frame[1].name, TaggedPtr(loc, tag))
                e = frame[1].body
            else:
                v = _access(st, frame[1], env)
            n += 1
            if check_invariants:
                st.check_invariants()
    except AliasError as err:
        if n < fuel:
            return RunOutcome("alias", error=err, steps=n, state=st)
    except StuckError as err:
        if n < fuel:
            return RunOutcome("stuck", reason=str(err), steps=n, state=st)
    return RunOutcome("fuel", steps=fuel, state=st)


def run(
    program: Program,
    fuel: int = DEFAULT_FUEL,
    check_invariants: bool = False,
    trace: bool = False,
) -> RunOutcome:
    """Run the program's entry; `trace` keeps every stack event in
    `outcome.state.trace`."""
    if program.entry is None:
        raise ValueError("program has no entry expression")
    st = MachineState(recording=trace)
    # the entry's lets bind in a copy, out of the declarations' sight
    env = dict(_global_env(program))
    return run_expr(st, program.entry, env, fuel, check_invariants)
