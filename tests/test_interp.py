"""Interpreter and stack-discipline semantics: unit transitions, the
randomized event suite, vector rules, and end-to-end runs."""

import glob
import hashlib
import json
import random

import pytest

from lrcheck.builtins import BUILTIN_SIGS, BUILTIN_VALUES
from lrcheck.cli import main
from lrcheck.harness import generate_program, run_and_verify
from lrcheck.interp import (
    AliasError,
    MachineState,
    Perm,
    StackItem,
    run,
    run_expr,
    sb_alloc,
    sb_dealloc,
    sb_read,
    sb_reborrow,
    sb_write,
)
from lrcheck.oracle import eval_closed
from lrcheck.parser import parse_expr, parse_program
from lrcheck.syntax import BoolLit, IntLit, Poison, Program, TaggedPtr, VecVal
from lrcheck.typeck import check_program

DECR = open("corpus/accept/decr.lr").read()


# -- allocation ---------------------------------------------------------------


def test_alloc_one_cell():
    st = MachineState()
    loc, tag = sb_alloc(st, 1)
    assert st.heap[loc] == Poison()
    assert st.stacks[loc] == [StackItem(Perm.UNIQUE, tag)]


def test_alloc_contiguous_same_tag():
    st = MachineState()
    loc, tag = sb_alloc(st, 3)
    assert sorted(st.heap) == [loc, loc + 1, loc + 2]
    for i in range(3):
        assert st.stacks[loc + i] == [StackItem(Perm.UNIQUE, tag)]


# -- read / write / reborrow ----------------------------------------------------


def _stack(st, loc):
    return [(i.perm, i.tag) for i in st.stacks[loc]]


def test_read_disables_uniques_above():
    st = MachineState()
    loc, t0 = sb_alloc(st, 1)
    t1 = sb_reborrow(st, loc, t0, "mut")
    sb_read(st, loc, t0)
    assert _stack(st, loc) == [(Perm.UNIQUE, t0), (Perm.DISABLED, t1)]


def test_read_topmost_keeps_stack():
    st = MachineState()
    loc, t0 = sb_alloc(st, 1)
    t1 = sb_reborrow(st, loc, t0, "mut")
    before = _stack(st, loc)
    sb_read(st, loc, t1)
    assert _stack(st, loc) == before


def test_read_keeps_shared_above():
    st = MachineState()
    loc, t0 = sb_alloc(st, 1)
    t1 = sb_reborrow(st, loc, t0, "shr")
    sb_read(st, loc, t0)
    assert _stack(st, loc) == [(Perm.UNIQUE, t0), (Perm.SHARED_RO, t1)]


def test_read_with_absent_tag_fails():
    st = MachineState()
    loc, t0 = sb_alloc(st, 1)
    with pytest.raises(AliasError):
        sb_read(st, loc, t0 + 77)


def test_write_pops_above_granting_unique():
    st = MachineState()
    loc, t0 = sb_alloc(st, 1)
    t1 = sb_reborrow(st, loc, t0, "mut")
    t2 = sb_reborrow(st, loc, t1, "shr")
    assert len(st.stacks[loc]) == 3
    sb_write(st, loc, t0)
    assert _stack(st, loc) == [(Perm.UNIQUE, t0)]


def test_write_with_shared_tag_fails():
    st = MachineState()
    loc, t0 = sb_alloc(st, 1)
    t1 = sb_reborrow(st, loc, t0, "shr")
    with pytest.raises(AliasError):
        sb_write(st, loc, t1)


def test_reborrow_pushes_one_item():
    st = MachineState()
    loc, t0 = sb_alloc(st, 1)
    t1 = sb_reborrow(st, loc, t0, "mut")
    assert _stack(st, loc) == [(Perm.UNIQUE, t0), (Perm.UNIQUE, t1)]
    # a shared reborrow reads through t0 first, disabling the unique above
    before = len(st.stacks[loc])
    t2 = sb_reborrow(st, loc, t0, "shr")
    assert _stack(st, loc) == [
        (Perm.UNIQUE, t0),
        (Perm.DISABLED, t1),
        (Perm.SHARED_RO, t2),
    ]
    assert len(st.stacks[loc]) == before + 1


def test_reborrow_from_disabled_tag_fails():
    st = MachineState()
    loc, t0 = sb_alloc(st, 1)
    t1 = sb_reborrow(st, loc, t0, "mut")
    sb_read(st, loc, t0)  # disables t1
    with pytest.raises(AliasError):
        sb_reborrow(st, loc, t1, "mut")


def test_randomized_event_suite():
    """Criterion-level transition properties over 10^4 random events."""
    rng = random.Random(99)
    st = MachineState()
    live_tags = {}
    locs = []
    events = 0
    while events < 10_000:
        action = rng.randrange(0, 10)
        if not locs or action == 0:
            loc, tag = sb_alloc(st, rng.randrange(1, 3))
            for i in range(loc, st.next_loc):
                locs.append(i)
                live_tags[i] = [tag]
            events += 1
            continue
        loc = rng.choice(locs)
        if loc not in st.stacks:
            locs = [l for l in locs if l in st.stacks]
            continue
        tags = [i.tag for i in st.stacks[loc]]
        tag = rng.choice(tags)
        stack_before = list(st.stacks[loc])
        kind = rng.choice(["read", "write", "rebor-mut", "rebor-shr", "dealloc"])
        events += 1
        try:
            if kind == "read":
                heap_before = dict(st.heap)
                sb_read(st, loc, tag)
                after = st.stacks[loc]
                # never grows, changes no heap values, only Unique->Disabled
                assert st.heap == heap_before
                assert len(after) == len(stack_before)
                for b, a in zip(stack_before, after):
                    assert a.tag == b.tag
                    assert a.perm == b.perm or (
                        b.perm == Perm.UNIQUE and a.perm == Perm.DISABLED
                    )
            elif kind == "write":
                sb_write(st, loc, tag)
                after = st.stacks[loc]
                # pop-only above the granting item, which ends up topmost
                assert len(after) <= len(stack_before)
                assert after == stack_before[: len(after)]
                assert after[-1].tag == tag and after[-1].perm == Perm.UNIQUE
            elif kind.startswith("rebor"):
                mode = "mut" if kind.endswith("mut") else "shr"
                new_tag = sb_reborrow(st, loc, tag, mode)
                after = st.stacks[loc]
                assert after[-1].tag == new_tag
                assert len(after) >= 1
            else:
                sb_dealloc(st, loc, 1)
                assert loc not in st.heap and loc not in st.stacks
        except AliasError:
            pass
        except Exception as exc:  # StuckError from dealloc races only
            from lrcheck.interp import StuckError

            assert isinstance(exc, StuckError)
        # the state invariant holds after every event
        st.check_invariants()
    assert events == 10_000


# -- vector rules ------------------------------------------------------------------


def _one_step(st, src, x):
    """Run `src` from state `st` with `x` bound, for one step of fuel."""
    return run_expr(st, parse_expr(src), dict(BUILTIN_VALUES, x=x), fuel=1)


def test_vec_push_empty_rule():
    st = MachineState()
    loc, tag = sb_alloc(st, 1)
    st.heap[loc] = VecVal(0, Poison())
    result = _one_step(st, "call vec_push(x, 5)", TaggedPtr(loc, tag))
    assert result.kind == "fuel" and result.steps == 1
    vec = st.heap[loc]
    assert isinstance(vec, VecVal) and vec.length == 1
    assert isinstance(vec.payload, TaggedPtr)
    assert st.heap[vec.payload.loc_id] == IntLit(5)


def test_vec_push_copies_and_deallocates():
    st = MachineState()
    cell, cell_tag = sb_alloc(st, 1)
    buf, buf_tag = sb_alloc(st, 2)
    st.heap[buf] = IntLit(10)
    st.heap[buf + 1] = IntLit(11)
    st.heap[cell] = VecVal(2, TaggedPtr(buf, buf_tag))
    result = _one_step(st, "call vec_push(x, 12)", TaggedPtr(cell, cell_tag))
    assert result.kind == "fuel" and result.steps == 1
    vec = st.heap[cell]
    assert vec.length == 3
    new_buf = vec.payload.loc_id
    assert [st.heap[new_buf + i] for i in range(3)] == [
        IntLit(10),
        IntLit(11),
        IntLit(12),
    ]
    # old buffer is gone
    assert buf not in st.heap and buf + 1 not in st.stacks


def test_vec_index_mut_returns_element_pointer():
    st = MachineState()
    cell, cell_tag = sb_alloc(st, 1)
    buf, buf_tag = sb_alloc(st, 2)
    st.heap[buf] = IntLit(10)
    st.heap[buf + 1] = IntLit(11)
    st.heap[cell] = VecVal(2, TaggedPtr(buf, buf_tag))
    e = parse_expr("call vec_index_mut(x, 1)")
    env = dict(BUILTIN_VALUES, x=TaggedPtr(cell, cell_tag))
    # fuel 2: the one rule fires, then the value is reported
    result = run_expr(st, e, env, fuel=2)
    assert result.kind == "done" and result.steps == 1
    ptr = result.value
    assert isinstance(ptr, TaggedPtr) and ptr.loc_id == buf + 1
    assert st.stacks[buf + 1][-1].tag == ptr.tag


def test_vec_index_mut_out_of_bounds_is_stuck():
    st = MachineState()
    cell, cell_tag = sb_alloc(st, 1)
    buf, buf_tag = sb_alloc(st, 1)
    st.heap[buf] = IntLit(10)
    st.heap[cell] = VecVal(1, TaggedPtr(buf, buf_tag))
    result = _one_step(st, "call vec_index_mut(x, 1)", TaggedPtr(cell, cell_tag))
    assert result.kind == "stuck"


def test_poison_condition_is_stuck():
    outcome = run(parse_program("entry if poison { 1 } else { 2 }"))
    assert outcome.kind == "stuck"


# -- end-to-end runs ----------------------------------------------------------------


def test_run_arithmetic():
    outcome = run(parse_program("entry let t = call add(1, 2) in call add(t, 3)"))
    assert outcome.kind == "done" and outcome.value == IntLit(6)


def test_run_decr_driver():
    src = DECR + (
        "\nentry\n  let c = new(l) in\n  let t0 = c := 1 in\n"
        "  let r = &mut c in\n  let t1 = call decr(r) in\n  *c\n"
    )
    outcome = run(parse_program(src), check_invariants=True)
    assert outcome.kind == "done" and outcome.value == IntLit(0)


def test_run_stale_mutable_write_alias_error():
    src = (
        "entry\n  let c = new(l) in\n  let t0 = c := 1 in\n"
        "  let r1 = &mut c in\n  let r2 = &mut c in\n"
        "  let t1 = r2 := 5 in\n  r1 := 7\n"
    )
    outcome = run(parse_program(src))
    assert outcome.kind == "alias"
    assert outcome.error.event in ("write", "reborrow")


def test_run_divergence_exhausts_fuel():
    src = "entry let f = rec f (x) := call f(x) in call f(poison)"
    outcome = run(parse_program(src), fuel=100)
    assert outcome.kind == "fuel"


def test_trace_is_deterministic():
    src = DECR + (
        "\nentry\n  let c = new(l) in\n  let t0 = c := 1 in\n"
        "  let r = &mut c in\n  let t1 = call decr(r) in\n  *c\n"
    )
    out1 = run(parse_program(src), trace=True)
    out2 = run(parse_program(src), trace=True)
    t1 = [e.render() for e in out1.state.trace]
    t2 = [e.render() for e in out2.state.trace]
    assert t1 == t2 and t1


def test_canonical_forms_at_done():
    cases = [
        ("entry true", BoolLit),
        ("entry 5", IntLit),
        ("entry let t = call add(2, 2) in t", IntLit),
    ]
    for src, kind in cases:
        outcome = run(parse_program(src))
        assert outcome.kind == "done" and isinstance(outcome.value, kind)
    vec_src = (
        open("corpus/accept/make_vec.lr").read()
        + "\nentry call make_vec()\n"
    )
    outcome = run(parse_program(vec_src))
    assert outcome.kind == "done" and isinstance(outcome.value, VecVal)
    assert outcome.value.length == 1


def test_vec_push_preserves_order_end_to_end():
    src = (
        "entry\n  let v = new(l) in\n  let t0 = v := call vec_new<int>() in\n"
        "  let t1 = call vec_push(v, 1) in\n  let t2 = call vec_push(v, 2) in\n"
        "  let t3 = call vec_push(v, 3) in\n  *v\n"
    )
    outcome = run(parse_program(src), check_invariants=True)
    assert outcome.kind == "done"
    vec = outcome.value
    assert vec.length == 3
    base = vec.payload.loc_id
    values = [outcome.state.heap[base + i] for i in range(3)]
    assert values == [IntLit(1), IntLit(2), IntLit(3)]


# -- the environment machine ----------------------------------------------------------


def test_deep_non_tail_recursion_runs():
    """Each pending call is a continuation frame, not a Python frame."""
    src = (
        "entry let f = rec f (n) := if call gt (n, 0) { let m = call sub(n, 1) in "
        "let r = call f(m) in call add(r, 2) } else { 0 } in call f (5000)"
    )
    outcome = run(parse_program(src))
    assert outcome.kind == "done" and outcome.value == IntLit(10000)
    assert outcome.state.rule_counter["call-rec"] == 5001


def test_fuel_ends_a_run_before_its_final_value():
    """A run with fuel N fires N rules; the value reached after the N-th
    firing reports fuel exhaustion."""
    program = parse_program("entry let t = call add(1, 2) in call add(t, 3)")
    done = run(program, fuel=4)
    assert done.kind == "done" and done.steps == 3
    for fuel in (0, 1, 2, 3):
        outcome = run(program, fuel=fuel)
        assert outcome.kind == "fuel" and outcome.steps == fuel


def test_trace_is_recorded_only_on_request():
    program = parse_program(DECR + "\nentry let c = new(l) in let t0 = c := 1 in *c\n")
    assert run(program).state.trace == []
    assert [e.event for e in run(program, trace=True).state.trace] == [
        "alloc", "write", "read",
    ]


def test_refinement_arguments_do_not_affect_a_run():
    """Refinement arguments taken from an unpack, also from a shadowed one,
    give the outcome of the same call without them."""
    pairs = [
        (
            "entry let y = 5 in unpack (y, a) in call gt {a, 0} (y, 0)",
            "entry let y = 5 in call gt (y, 0)",
        ),
        (
            "entry let y = 5 in let z = 1 in unpack (y, a) in unpack (z, a) in "
            "call gt {a, 0} (y, 0)",
            "entry let y = 5 in let z = 1 in call gt (y, 0)",
        ),
        (
            "entry let f = rec f {a: int} (x) := call gt {a, 0} (x, 0) in "
            "let y = 5 in unpack (y, b) in call f {b} (y)",
            "entry let f = rec f {a: int} (x) := call gt {a, 0} (x, 0) in "
            "let y = 5 in call f (y)",
        ),
    ]
    for with_args, without in pairs:
        a, b = run(parse_program(with_args)), run(parse_program(without))
        assert (a.kind, a.value, a.steps) == ("done", BoolLit(True), b.steps)
        assert a.state.rule_counter == b.state.rule_counter


def test_unpack_of_an_unindexed_value_is_stuck_at_the_unpack():
    """A pointer or poison bound to a variable that a later unpack names
    gets the machine stuck when it reaches the unpack, after the steps
    before it (the substitution stepper got stuck at the binding step)."""
    for src, name in [
        ("entry let c = new(l) in let y = 1 in unpack (c, a) in 5", "c"),
        ("entry let p = poison in let y = 1 in unpack (p, a) in 5", "p"),
    ]:
        outcome = run(parse_program(src))
        assert outcome.kind == "stuck" and outcome.steps == 2
        assert outcome.reason == (
            f"unpack of '{name}' against a value with no refinement index"
        )


def test_rec_literal_keeps_the_values_of_its_free_variables():
    """A closure sees the bindings its literal was evaluated in, also a
    pointer it assigns through, however the names are rebound later."""
    src = (
        "entry let p = new(l) in let y = 5 in "
        "let f = rec f (z) := let t = p := y in *p in "
        "let y = 7 in let p = 0 in call f(0)"
    )
    outcome = run(parse_program(src), check_invariants=True)
    assert (outcome.kind, outcome.value) == ("done", IntLit(5))
    assert run(parse_program("entry rec f (x) := x")).render() == (
        "done: rec f (x) := x after 0 step(s)"
    )


def test_captured_pointer_unpacked_in_a_rec_body_is_stuck_when_called():
    literal = "entry let c = new(l) in let f = rec f (z) := unpack (c, a) in z in "
    assert run(parse_program(literal + "5")).value == IntLit(5)
    outcome = run(parse_program(literal + "let y = 1 in call f(y)"))
    assert (outcome.kind, outcome.steps) == ("stuck", 4)
    assert outcome.reason == "unpack of 'c' against a value with no refinement index"


def test_place_holding_a_non_pointer_is_stuck_naming_the_variable():
    for src, what in [("x := 1", "assign"), ("*x", "deref"), ("&mut x", "&mut")]:
        outcome = run(parse_program(f"entry let x = 5 in {src}"))
        assert (outcome.kind, outcome.steps) == ("stuck", 1)
        assert outcome.reason == f"{what} through non-pointer variable 'x'"


# tests/data/interp_golden.json holds, for every corpus program with an
# entry and generator seeds 0-199 at budget 10, one digest per fuel of the
# outcome the substitution stepper this machine replaced gave.  The machine
# must reproduce each one.
GOLDEN = json.load(open("tests/data/interp_golden.json"))


def _digest(outcome) -> str:
    parts = [
        outcome.kind,
        repr(outcome.value),
        str(outcome.steps),
        repr(outcome.error),
        outcome.reason,
        repr(sorted(outcome.state.rule_counter.items())),
    ]
    parts += [event.render() for event in outcome.state.trace]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def test_golden_covers_every_corpus_entry():
    with_entry = {
        path
        for path in glob.glob("corpus/*/*.lr")
        if parse_program(open(path).read()).entry is not None
    }
    names = set(GOLDEN["digests"])
    assert with_entry and with_entry <= names
    assert {f"seed{s}" for s in range(200)} <= names


def test_runs_match_the_golden_digests():
    mismatched = []
    for name, expected in GOLDEN["digests"].items():
        if name.startswith("seed"):
            program = generate_program(int(name[len("seed"):]), 10)
        else:
            program = parse_program(open(name).read())
        for fuel, digest in zip(GOLDEN["fuels"], expected):
            if _digest(run(program, fuel=fuel, trace=True)) != digest:
                mismatched.append((name, fuel))
    assert not mismatched


# -- builtins ----------------------------------------------------------------

# what each builtin computes, spelled out independently of the operator table
BUILTIN_REFERENCE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "eq": lambda a, b: a == b,
}


@pytest.mark.parametrize("name", sorted(BUILTIN_REFERENCE))
def test_builtin_signature_and_run_time_value_agree_with_the_reference(name):
    """For every argument pair in -3..3, the value a run of `call NAME(a, b)`
    produces and the signature's result index at `a1 = a, a2 = b` both equal
    the reference, down to int versus bool."""
    assert sorted(BUILTIN_VALUES) == sorted(BUILTIN_REFERENCE)
    index = BUILTIN_SIGS[name].ret.idx
    for a in range(-3, 4):
        for b in range(-3, 4):
            want = BUILTIN_REFERENCE[name](a, b)
            outcome = run(parse_program(f"entry call {name}({a}, {b})"))
            assert outcome.kind == "done", outcome.render()
            got = {"run": outcome.value.value, "index": eval_closed(index, {"a1": a, "a2": b})}
            for where, value in got.items():
                assert (type(value), value) == (type(want), want), (where, a, b)


# -- declaration scope --------------------------------------------------------

# a top-level function sees every declaration and itself, as the checker
# binds them: each program checks, and ran stuck before that
SCOPE_PROGRAMS = {
    "calls_a_later_declaration": (
        "fn f {}( int[0] ) -> int[0] := rec f (x) := call g(x)\n"
        "fn g {}( int[0] ) -> int[0] := rec g (x) := x\n"
        "entry call f(0)\n",
        "done: 0 after 2 step(s)",
    ),
    "calls_itself_by_its_declared_name": (
        "fn f {n: int | n >= 0}( int[n] ) -> int[0] :=\n"
        "  rec g (x) :=\n"
        "    if call gt(x, 0) { let y = call sub(x, 1) in call f(y) } else { 0 }\n"
        "entry call f(3)\n",
        "done: 0 after 18 step(s)",
    ),
    "mutually_recursive": (
        "fn even {n: int | n >= 0}( int[n] ) -> bool[true] :=\n"
        "  rec even (x) :=\n"
        "    if call gt(x, 0) { let y = call sub(x, 1) in call odd(y) } else { true }\n"
        "fn odd {n: int | n >= 0}( int[n] ) -> bool[true] :=\n"
        "  rec odd (x) :=\n"
        "    if call gt(x, 0) { let y = call sub(x, 1) in call even(y) } else { true }\n"
        "entry call even(4)\n",
        "done: true after 23 step(s)",
    ),
}


@pytest.mark.parametrize("name", sorted(SCOPE_PROGRAMS))
def test_a_declaration_sees_every_declaration_and_itself(name, tmp_path):
    source, want = SCOPE_PROGRAMS[name]
    path = tmp_path / f"{name}.lr"
    path.write_text(source)
    assert main(["check", str(path)]) == 0
    program = parse_program(source)
    assert run(program).render() == want
    verdict = run_and_verify(program)
    assert verdict.passed, (verdict.kind, verdict.detail)


def test_the_entry_binds_nothing_a_declaration_sees():
    """An entry's `let` does not reach the body of a declaration it calls:
    the free `y` of `f` stays free (the program does not check)."""
    program = parse_program(
        "fn f {}( int[0] ) -> int[0] := rec f (x) := y\n"
        "entry let y = 1 in call f(0)\n"
    )
    assert run(program).render() == "stuck: free variable 'y' at runtime after 2 step(s)"


def test_the_order_of_declarations_changes_no_verdict_and_no_run():
    """Every corpus program with two or more declarations and an entry,
    with its declarations reversed, gets the same verdicts and runs to the
    same end."""
    reversed_runs = {}
    for path in sorted(glob.glob("corpus/*/*.lr")):
        program = parse_program(open(path).read())
        if len(program.decls) < 2 or program.entry is None:
            continue
        flipped = Program(tuple(reversed(program.decls)), program.entry)
        verdicts = [
            sorted((u.name, u.status) for u in check_program(p).units)
            for p in (program, flipped)
        ]
        assert verdicts[0] == verdicts[1], path
        reversed_runs[path] = run(flipped).render()
        assert reversed_runs[path] == run(program).render(), path
    assert reversed_runs["corpus/accept/ref_join_driver.lr"] == "done: 0 after 19 step(s)"
