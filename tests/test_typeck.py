"""The typing engine: rule-level behavior, worked derivations, and the
framing/value-refinement/well-formedness property suites."""

import glob
import random

import pytest

import lrcheck.logic
import lrcheck.typeck

from lrcheck.constraints import Conj, ForAll, Head, clauses, dump_clauses_text, normalize
from lrcheck.errors import (
    AssignThroughShared,
    CheckError,
    DerefNonPointer,
    DerefUninit,
    EscapeError,
    InstError,
    UnboundVariable,
)
from lrcheck.harness import generate_program, run_and_verify
from lrcheck.infer import KVarSupply
from lrcheck.logic import fold_constants, interp
from lrcheck.oracle import Oracle, Query
from lrcheck.parser import parse_expr, parse_program, parse_refexpr, parse_type
from lrcheck.printer import print_refexpr
from lrcheck.syntax import (
    AbstractLoc,
    BoolConst,
    Exists,
    Indexed,
    IntBase,
    IntConst,
    IntLit,
    KApp,
    LocCtx,
    Program,
    Ref,
    Sort,
    StrongPtr,
    Uninit,
    Var,
    subterms,
)
from lrcheck.typeck import Checker, build_globals, check_program

R = parse_refexpr

DECR = open("corpus/accept/decr.lr").read()


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


def fresh_checker(program_src="") -> Checker:
    program = parse_program(program_src) if program_src else Program(())
    return Checker(build_globals(program), KVarSupply())


def fresh_state(checker) -> Checker:
    """A checker for a fresh unit over the globals and kvars of `checker`."""
    return Checker(checker.vals, checker.kvars)


# -- whole-program checks ------------------------------------------------------


def test_decr_single_clause(oracle):
    report = check_program(parse_program(DECR), oracle=oracle)
    unit = report.unit("decr")
    assert unit.status == "verified"
    assert len(unit.clauses) == 1
    clause = unit.clauses[0]
    assert clause.hyps == (R("ay >= 0"), R("ay > 0"))
    assert clause.head == R("ay - 1 >= 0")
    assert clause.binders == (("ay", Sort.INT),)


def test_decr_guard_removed_mutant_rejected(oracle):
    src = open("corpus/mutants/decr_noguard.lr").read()
    report = check_program(parse_program(src), oracle=oracle)
    unit = report.unit("decr")
    assert unit.status == "rejected"
    clause = unit.clauses[unit.diagnostics[0].clause_id]
    assert clause.hyps == (R("ay >= 0"),)
    assert clause.head == R("ay - 1 >= 0")
    assert unit.diagnostics[0].span is not None


def test_empty_program_has_no_constraints(oracle):
    report = check_program(parse_program(""), oracle=oracle)
    assert report.units == []


def test_checking_continues_across_functions(oracle):
    src = (
        "fn bad {}( int[0] ) -> int[1] := rec bad (x) := x\n"
        + DECR
    )
    report = check_program(parse_program(src), oracle=oracle)
    assert report.unit("bad").status == "rejected"
    assert report.unit("decr").status == "verified"
    assert not report.ok


# -- emission ------------------------------------------------------------------


def _emitted_parts(program):
    """The obligations the checker emits for every unit of `program`, as
    each unit's checker holds them; a unit that fails structurally
    contributes none."""
    globals_ctx, kvars = build_globals(program), KVarSupply()
    units = [(Checker.check_fn, d) for d in program.decls]
    if program.entry is not None:
        units.append((Checker.check_entry, program.entry))
    parts = []
    for check, node in units:
        checker = Checker(globals_ctx, kvars)
        try:
            check(checker, node)
        except CheckError:
            continue
        parts.extend(checker.emitted)
    return parts


def test_every_emitted_obligation_yields_a_clause():
    programs = [parse_program(open(p).read()) for p in sorted(glob.glob("corpus/*/*.lr"))]
    programs += [generate_program(seed, 10) for seed in range(60)]
    parts = [part for program in programs for part in _emitted_parts(program)]
    assert parts
    assert all(clauses(normalize(part)) for part in parts)


def test_normalized_constraint_is_a_list_of_closed_heads(oracle):
    """Every part of a unit's constraint is one clause, as emitted: a head,
    or a head under one non-empty `ForAll`.  It is already in the normal
    form `normalize` gives, and an unknown predicate is applied only as a
    whole hypothesis or head, never inside one."""
    programs = [parse_program(open(p).read()) for p in sorted(glob.glob("corpus/*/*.lr"))]
    programs += [generate_program(seed, 10) for seed in range(60)]
    closed = kapps = 0
    for program in programs:
        for unit in check_program(program, oracle=oracle, run_solver=False).units:
            c = unit.constraint
            for part in c.parts if isinstance(c, Conj) else (c,):
                if isinstance(part, ForAll):
                    assert part.binders or part.hyps
                    part, closed = part.body, closed + 1
                assert isinstance(part, Head), part
            assert clauses(normalize(c)) == clauses(c)
            for cl in clauses(c):
                for e in cl.hyps + (cl.head,):
                    nested = [x for x in subterms(e) if isinstance(x, KApp)]
                    assert nested in ([], [e]), print_refexpr(e)
                    kapps += len(nested)
    assert closed and kapps


def test_long_let_chain_emits_no_obligation():
    lines = ["let x0 = 0 in", "let c = new(lc) in", "let w0 = c := 0 in"]
    for i in range(1, 100):
        lines += [
            f"let x{i} = call add(x{i - 1}, {i % 7}) in",
            f"let w{i} = c := x{i} in",
            f"let m{i} = *c in",
        ]
    program = parse_program("entry\n  " + "\n  ".join(lines) + "\n  *c\n")
    assert _emitted_parts(program) == []


# -- synthesis of values -------------------------------------------------------


def test_synth_true_is_singleton_and_pure():
    from lrcheck.syntax import BoolBase

    checker = fresh_checker()
    state = fresh_state(checker)
    before = state.locs
    t = state.synth(parse_expr("true"))
    assert t == Indexed(BoolBase(), BoolConst(True))
    assert state.locs == before


def test_synth_arith_chain_folds_to_six():
    checker = fresh_checker()
    state = fresh_state(checker)
    t = state.synth(parse_expr("let t = call add(1, 2) in call add(t, 3)"))
    assert isinstance(t, Indexed)
    assert fold_constants(t.idx) == IntConst(6)


def test_value_typing_is_context_pure():
    checker = fresh_checker()
    state = fresh_state(checker)
    state.ctx = state.ctx.bind("l", Sort.LOC)
    state.locs = LocCtx(((AbstractLoc("l"), Uninit(1)),))
    before = state.locs
    for text in ["true", "false", "3", "-2", "poison"]:
        state.synth(parse_expr(text))
        assert state.locs == before


# -- let new and escapes ---------------------------------------------------------


def test_letnew_escape_through_result():
    checker = fresh_checker()
    state = fresh_state(checker)
    with pytest.raises(EscapeError):
        state.synth(parse_expr("let x = new(l) in &strg x"))


def test_letnew_ok_when_local():
    checker = fresh_checker()
    state = fresh_state(checker)
    t = state.synth(parse_expr("let x = new(l) in let t = x := 1 in *x"))
    assert t == parse_type("int[1]")
    assert state.locs == LocCtx()


def _entry(*lines):
    return "entry\n  " + "\n  ".join(lines) + "\n"


ESCAPES = [
    # (entry, the position and message of the one diagnostic it gives)
    (
        _entry("let a = new(la) in", "let b = new(lb) in", "let w = a := &strg b in", "0"),
        ("3:3", "location 'lb' escapes through the location context"),
    ),
    (
        _entry("let a = new(la) in", "let b = new(lb) in", "let c = new(lc) in", "&strg b"),
        ("3:3", "location 'lb' escapes through the result type ptr(lb)"),
    ),
    # both `lb` and `lc` escape: the innermost exit is reported
    (
        _entry(
            "let a = new(la) in", "let b = new(lb) in", "let c = new(lc) in",
            "let w = a := &strg c in", "&strg b",
        ),
        ("4:3", "location 'lc' escapes through the location context"),
    ),
]


@pytest.mark.parametrize("src, diagnostic", ESCAPES, ids=["context", "result", "innermost"])
def test_a_chain_reports_the_escape_of_its_innermost_cell(src, diagnostic):
    report = check_program(parse_program(src))
    assert [(str(d.span), d.message) for d in report.diagnostics()] == [diagnostic]
    assert report.diagnostics()[0].rule == "EscapeError"


def test_a_cell_in_an_inferred_loop_body_is_dropped_without_a_check_in_the_shape_pass():
    """The shape pass types the recursive call, the chain's body, as a hole,
    which has no free variables to check."""
    program = parse_program(_entry(
        "let cp = new(lcp) in",
        "let t0 = cp := 0 in",
        "let loop = rec loop (u) :=",
        "  let v = *cp in",
        "  if call lt (v, 3) {",
        "    let c = new(lc) in",
        "    let w = c := v in",
        "    let t = cp := call add (v, 1) in",
        "    call loop(poison)",
        "  } else {",
        "    *cp",
        "  }",
        "in call loop(poison)",
    ))
    report = check_program(program)
    assert report.ok, report.diagnostics()
    verdict = run_and_verify(program, report=report)
    assert verdict.passed and verdict.outcome.value == IntLit(3)


def _cell_chain(n_lets):
    """A let-chain of about `n_lets` lets: `add` steps, cells allocated,
    overwritten and read, and writes of the chain value into the result
    cell `s`; with the value it ends with."""
    rng = random.Random(n_lets)
    lines = ["let x0 = 0 in", "let s = new(ls) in", "let w0 = s := 0 in"]
    cells = {}  # cell name -> the constant it holds
    x = value = 0
    for k in range(1, n_lets):
        if len(lines) >= n_lets - 1:
            break
        r = rng.random()
        if r < 0.15 or not cells:
            c = rng.randrange(10)
            lines += [f"let c{k} = new(lc{k}) in", f"let w{k} = c{k} := {c} in"]
            cells[f"c{k}"] = c
        elif r < 0.55:
            c = rng.randrange(10)
            lines.append(f"let x{x + 1} = call add(x{x}, {c}) in")
            x, value = x + 1, value + c
        elif r < 0.7:
            cell, c = rng.choice(sorted(cells)), rng.randrange(10)
            lines.append(f"let w{k} = {cell} := {c} in")
            cells[cell] = c
        elif r < 0.85:
            cell = rng.choice(sorted(cells))
            lines += [f"let m{k} = *{cell} in", f"let x{x + 1} = call add(x{x}, m{k}) in"]
            x, value = x + 1, value + cells[cell]
        else:
            lines.append(f"let w{k} = s := x{x} in")
    return _entry(*lines, f"let w = s := x{x} in", "*s"), value


def test_the_escape_checks_of_a_chain_take_linear_work(monkeypatch):
    """Counted, not timed: `free_vars` calls grow about as the chain does
    (one check per chain), not as its cells squared (one per cell)."""
    calls = []
    free_vars = lrcheck.logic.free_vars

    def counted(t):
        calls.append(None)
        return free_vars(t)

    monkeypatch.setattr(lrcheck.logic, "free_vars", counted)
    monkeypatch.setattr(lrcheck.typeck, "free_vars", counted)
    counts = []
    for n in (300, 1200):
        calls.clear()
        assert check_program(parse_program(_cell_chain(n)[0])).ok
        counts.append(len(calls))
    assert counts[1] <= 4.5 * counts[0], counts


def test_a_chain_of_cells_builds_no_obligation_to_normalize(monkeypatch):
    """Each `add` argument has the index of its formal, `add` requires
    `true`, and cell reads and writes are strong: nothing reaches
    `normalize`, and no clause is emitted."""
    calls = []
    normalize = lrcheck.typeck.normalize

    def counted(c):
        calls.append(c)
        return normalize(c)

    monkeypatch.setattr(lrcheck.typeck, "normalize", counted)
    report = check_program(parse_program(_cell_chain(300)[0]))
    assert report.ok
    assert calls == []
    assert report.unit("entry").clauses == []


def test_a_3000_let_chain_of_cells_checks_and_runs_to_its_value():
    src, value = _cell_chain(3000)
    program = parse_program(src)
    report = check_program(program)
    assert report.ok, report.diagnostics()
    verdict = run_and_verify(program, report=report)
    assert verdict.passed and verdict.outcome.value == IntLit(value)


# -- unpacking -------------------------------------------------------------------


def test_unpack_on_the_fly_example():
    from lrcheck.syntax import Cmp

    checker = fresh_checker()
    state = fresh_state(checker)
    state.vals = state.vals.bind("x", parse_type("{b. int[b] | b >= 0}"))
    state.unpack_on_the_fly("x")
    t = state.vals.lookup("x")
    assert isinstance(t, Indexed) and isinstance(t.idx, Var)
    fresh_name = t.idx.name
    assert state.ctx.sort_of(fresh_name) == Sort.INT
    assert Cmp(">=", Var(fresh_name), IntConst(0)) in state.ctx.assumptions()


def test_unpack_on_the_fly_noop_on_indexed():
    checker = fresh_checker()
    state = fresh_state(checker)
    state.vals = state.vals.bind("x", parse_type("int[3]"))
    before = (state.ctx, state.vals)
    state.unpack_on_the_fly("x")
    assert (state.ctx, state.vals) == before


def test_unpack_on_the_fly_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        checker = fresh_checker()
        state = fresh_state(checker)
        lo = rng.randrange(-3, 3)
        state.vals = state.vals.bind(
            "x", Exists("b", parse_type("int[0]").base, R(f"b >= 0 - {-lo}" if lo < 0 else f"b >= {lo}"))
        )
        state.unpack_on_the_fly("x")
        snap = (state.ctx, state.vals)
        state.unpack_on_the_fly("x")
        assert (state.ctx, state.vals) == snap


def test_explicit_unpack_binds_program_name():
    checker = fresh_checker()
    state = fresh_state(checker)
    state.vals = state.vals.bind("y", parse_type("{b. int[b] | b >= 0}"))
    t = state.synth(parse_expr("unpack (y, ay) in y"))
    assert t == parse_type("int[ay]")
    assert state.ctx.sort_of("ay") == Sort.INT
    assert R("ay >= 0") in state.ctx.assumptions()


def test_explicit_unpack_after_auto_unpack_aliases():
    """`y` is already `int[b%0]`, the singleton existential of `b%0`, so
    the unpack binds `ay` to it with an equality."""
    checker = fresh_checker()
    state = fresh_state(checker)
    state.vals = state.vals.bind("y", parse_type("{b. int[b] | b >= 0}"))
    state.unpack_on_the_fly("y")
    t = state.synth(parse_expr("unpack (y, ay) in y"))
    assert t == parse_type("int[ay]")
    assert [b.name for b in state.ctx.binds()] == ["b%0", "ay"]
    assert [print_refexpr(h) for h in state.ctx.assumptions()] == [
        "b%0 >= 0",
        "ay = b%0",
    ]


CALL_THEN_UNPACK = """\
fn f {}( &mut {v. int[v] | v >= 0} ) -> {v. int[v] | v >= 0} :=
  rec f (x) :=
    let y = *x in
    let b = call gt(y, 0) in
    unpack (y, ay) in
    call add {ay, 1} (y, 1)

entry
  let c = new(l) in
  let t = c := 3 in
  let r = &mut c in
  call f(r)
"""


def test_unpack_after_a_call_aliases_the_opened_index(oracle):
    """The call opens `y` into `v%0`; the later unpack names it `ay`."""
    program = parse_program(CALL_THEN_UNPACK)
    report = check_program(program, oracle=oracle)
    assert report.ok, report.diagnostics()
    assert dump_clauses_text(report.unit("f").clauses) == (
        "clause 0 [v%0:int ay:int] [v%0 >= 0; ay = v%0] => ay + 1 >= 0"
        " @ 1:1 fn-def"
    )
    verdict = run_and_verify(program, report=report)
    assert verdict.passed, verdict.detail
    assert verdict.outcome.render() == "done: 4 after 11 step(s)"


# -- refinement-parameter instantiation -------------------------------------------


def test_infer_refargs_greater_example():
    checker = fresh_checker()
    state = fresh_state(checker)
    state.ctx = state.ctx.bind("ay", Sort.INT)
    sig = checker.vals.lookup("gt")
    out = state.infer_refargs(sig, [parse_type("int[ay]"), parse_type("int[0]")], None)
    assert out == [Var("ay"), IntConst(0)]


def test_infer_refargs_zero_params():
    checker = fresh_checker(DECR)
    state = fresh_state(checker)
    sig = checker.vals.lookup("decr")
    assert state.infer_refargs(sig, [parse_type("&mut {v. int[v] | v >= 0}")], None) == []


def test_infer_refargs_undetermined_parameter():
    # parameter occurring only under a vector element type
    src = (
        "fn weird {a: int}( Vec<{v. int[v] | v = a}>[1] ) -> uninit(1) := "
        "rec weird (v) := poison"
    )
    checker = fresh_checker(src)
    state = fresh_state(checker)
    sig = checker.vals.lookup("weird")
    with pytest.raises(InstError):
        state.infer_refargs(
            sig, [parse_type("Vec<{v. int[v] | v = 1}>[1]")], None
        )


# -- assignment --------------------------------------------------------------------


def _state_with_cell(checker, cell_type):
    state = fresh_state(checker)
    state.ctx = state.ctx.bind("l", Sort.LOC)
    state.vals = state.vals.bind("x", StrongPtr(AbstractLoc("l")))
    state.locs = LocCtx(((AbstractLoc("l"), cell_type),))
    return state


def test_assign_strong_update():
    checker = fresh_checker()
    state = _state_with_cell(checker, Uninit(1))
    t = state.synth(parse_expr("x := 1"))
    assert t == Uninit(1)
    assert state.locs.lookup(AbstractLoc("l")) == parse_type("int[1]")


def test_assign_weak_update_emits_obligation(oracle):
    checker = fresh_checker()
    state = fresh_state(checker)
    state.ctx = (
        state.ctx.bind("ay", Sort.INT).assume(R("ay >= 0")).assume(R("ay > 0"))
    )
    state.vals = state.vals.bind("r", parse_type("&mut {v. int[v] | v >= 0}"))
    state.vals = state.vals.bind("y", parse_type("int[ay]"))
    state.synth(parse_expr("r := call sub {ay, 1} (y, 1)"))
    cls = clauses(normalize(Conj(tuple(state.emitted))))
    heads = [c.head for c in cls]
    assert R("ay - 1 >= 0") in heads


def test_assign_through_shared_rejected():
    checker = fresh_checker()
    state = fresh_state(checker)
    state.vals = state.vals.bind("s", parse_type("&shr int[1]"))
    with pytest.raises(AssignThroughShared):
        state.synth(parse_expr("s := 2"))


# -- borrows -----------------------------------------------------------------------


def test_borrow_mut_weakens_with_template():
    checker = fresh_checker()
    state = _state_with_cell(checker, parse_type("int[1]"))
    t = state.synth(parse_expr("&mut x"))
    assert isinstance(t, Ref) and t.mode == "mut"
    pointee = t.pointee
    assert isinstance(pointee, Exists) and isinstance(pointee.pred, KApp)
    assert state.locs.lookup(AbstractLoc("l")) == pointee


def test_borrow_strong_is_identity():
    checker = fresh_checker()
    state = _state_with_cell(checker, parse_type("int[1]"))
    t = state.synth(parse_expr("&strg x"))
    assert t == StrongPtr(AbstractLoc("l"))
    assert state.locs.lookup(AbstractLoc("l")) == parse_type("int[1]")


def test_borrow_shr_of_mut():
    checker = fresh_checker()
    state = fresh_state(checker)
    state.vals = state.vals.bind("r", parse_type("&mut {v. int[v] | v >= 0}"))
    t = state.synth(parse_expr("&shr r"))
    assert t == parse_type("&shr {v. int[v] | v >= 0}")


def test_borrow_mut_of_mut_passthrough():
    checker = fresh_checker()
    state = fresh_state(checker)
    state.vals = state.vals.bind("r", parse_type("&mut int[2]"))
    assert state.synth(parse_expr("&mut r")) == parse_type("&mut int[2]")


# -- dereference --------------------------------------------------------------------


def test_deref_mut_ref():
    checker = fresh_checker()
    state = fresh_state(checker)
    state.vals = state.vals.bind("x", parse_type("&mut {v. int[v] | v >= 0}"))
    assert state.synth(parse_expr("*x")) == parse_type(
        "{v. int[v] | v >= 0}"
    )


def test_deref_strong_reads_current_type():
    checker = fresh_checker()
    state = _state_with_cell(checker, parse_type("int[5]"))
    assert state.synth(parse_expr("*x")) == parse_type("int[5]")


def test_deref_uninit_rejected():
    checker = fresh_checker()
    state = _state_with_cell(checker, Uninit(1))
    with pytest.raises(DerefUninit):
        state.synth(parse_expr("*x"))


def test_deref_non_pointer_rejected():
    checker = fresh_checker()
    state = fresh_state(checker)
    state.vals = state.vals.bind("x", parse_type("int[1]"))
    with pytest.raises(DerefNonPointer):
        state.synth(parse_expr("*x"))


def test_unbound_variable():
    checker = fresh_checker()
    state = fresh_state(checker)
    with pytest.raises(UnboundVariable):
        state.synth(parse_expr("nosuch"))


# -- properties ----------------------------------------------------------------------


def test_framing_junk_locations(oracle):
    """Adding unrelated locations to the input context must not change the
    result type, and the junk must come through untouched."""
    program = parse_program(DECR)
    decl = program.decls[0]
    checker = fresh_checker(DECR)

    def check_with_frame(frame_items):
        state = fresh_state(checker)
        for name, sort in decl.sig.refparams:
            state.ctx = state.ctx.bind(name, sort)
        state.ctx = state.ctx.assume(decl.sig.requires)
        for i, (loc, t) in enumerate(frame_items):
            state.ctx = state.ctx.bind(loc.name, Sort.LOC)
        state.vals = state.vals.bind("x", decl.sig.args[0])
        state.locs = LocCtx(tuple(frame_items))
        t = state.synth(decl.fn.body)
        return t, state.locs

    t_plain, locs_plain = check_with_frame([])
    junk = [
        (AbstractLoc("junk0"), parse_type("int[7]")),
        (AbstractLoc("junk1"), Uninit(1)),
    ]
    t_framed, locs_framed = check_with_frame(junk)
    assert t_plain == t_framed
    for loc, typ in junk:
        assert locs_framed.lookup(loc) == typ


def test_framing_randomized(oracle):
    """Junk locations framed through generated entry programs: same result
    type, junk bindings unchanged."""
    from lrcheck.harness import generate_program

    rng = random.Random(77)
    checked = 0
    for seed in range(200):
        program = generate_program(seed, budget=5)
        checker = Checker(build_globals(program), KVarSupply())
        junk = [
            (AbstractLoc("frame0"), parse_type(f"int[{rng.randrange(0, 9)}]")),
            (AbstractLoc("frame1"), Uninit(1)),
        ]

        def synth_entry(frame):
            state = fresh_state(checker)
            for loc, _ in frame:
                state.ctx = state.ctx.bind(loc.name, Sort.LOC)
            state.locs = LocCtx(tuple(frame))
            t = state.synth(program.entry)
            return t, state.locs

        t_plain, _ = synth_entry([])
        t_framed, locs_framed = synth_entry(junk)
        assert _erase_fresh(t_plain) == _erase_fresh(t_framed), seed
        for loc, typ in junk:
            assert locs_framed.lookup(loc) == typ
        checked += 1
    assert checked == 200


def _erase_fresh(t):
    """Normalize generated fresh names so the two runs compare equal."""
    from lrcheck.printer import print_type
    import re

    return re.sub(r"(%\d+)|(\bk\d+\b)", "#", print_type(t))


def test_value_refinement_conformance(oracle):
    """Values accepted at an indexed type agree with their interpretation."""
    rng = random.Random(8)
    checker = fresh_checker()
    from lrcheck.syntax import Eq

    for _ in range(200):
        state = fresh_state(checker)
        value_text = rng.choice(["true", "false", str(rng.randrange(-5, 9))])
        t = state.synth(parse_expr(value_text))
        e = parse_expr(value_text)
        iv = interp(e.value)
        assert iv is not None
        assert isinstance(t, Indexed)
        assert oracle.valid(Query((), (), Eq(t.idx, iv))).is_valid


def test_debug_wf_over_corpus(oracle):
    for path in [
        "corpus/accept/decr.lr",
        "corpus/accept/ref_join.lr",
        "corpus/accept/make_vec.lr",
        "corpus/accept/init_zeros.lr",
    ]:
        report = check_program(
            parse_program(open(path).read()), oracle=oracle, debug_wf=True
        )
        assert report.ok, path


def test_explicit_unpack_of_indexed_binding_aliases():
    from lrcheck.syntax import Eq, Var

    """Unpacking a binding that is already indexed introduces an alias
    equation rather than failing (the strong-reference pattern)."""
    checker = fresh_checker()
    state = fresh_state(checker)
    state.ctx = state.ctx.bind("a", Sort.INT)
    state.vals = state.vals.bind("y", parse_type("int[a]"))
    t = state.synth(parse_expr("unpack (y, ay) in y"))
    assert t == parse_type("int[ay]")
    assert Eq(Var("ay"), Var("a")) in state.ctx.assumptions()


def test_strong_reference_signature_advances_cell():
    src = open("corpus/accept/incr_driver.lr").read()
    report = check_program(parse_program(src))
    assert report.ok
    from lrcheck.logic import fold_constants

    t = report.unit("entry").result_type
    assert isinstance(t, Indexed)
    assert fold_constants(t.idx) == IntConst(3)


# -- call results are folded where the call builds them ---------------------------


def test_call_chain_from_a_constant_keeps_a_constant_index():
    """Each call folds the index it returns, so 300 `add` steps from
    `let x0 = 0` type the last binding as one constant, not a 300-deep sum."""
    lines = ["let x0 = 0 in"]
    lines += [f"let x{i + 1} = call add(x{i}, {i % 5}) in" for i in range(300)]
    report = check_program(parse_program("entry\n  " + "\n  ".join(lines) + "\n  x300\n"))
    assert report.ok
    expected = Indexed(IntBase(), IntConst(sum(i % 5 for i in range(300))))
    assert report.unit("entry").result_type == expected


def test_vec_push_chain_folds_the_length_in_the_location_context():
    lines = ["let vp = new(l) in", "let t0 = vp := call vec_new<int>() in"]
    lines += [f"let t{i + 1} = call vec_push(vp, {i}) in" for i in range(30)]
    report = check_program(parse_program("entry\n  " + "\n  ".join(lines) + "\n  *vp\n"))
    assert report.ok
    assert report.unit("entry").result_type.idx == IntConst(30)


def test_doubling_chain_from_a_constant_checks_and_runs():
    """`add(x, x)` doubles an unfolded index at every let: 20 lets took
    16.8 s to check before calls folded their results."""
    lines = ["let x0 = 1 in"]
    lines += [f"let x{i + 1} = call add(x{i}, x{i}) in" for i in range(20)]
    program = parse_program("entry\n  " + "\n  ".join(lines) + "\n  x20\n")
    report = check_program(program)
    assert report.unit("entry").result_type == Indexed(IntBase(), IntConst(2**20))
    verdict = run_and_verify(program, report=report)
    assert verdict.passed, verdict.detail


# -- parameters may not shadow -----------------------------------------------------


SHADOWING_PARAMETERS = [
    # a parameter named like a builtin: the run calls the argument 5, while
    # the checker used to type the call as the builtin and accept
    ("add", "fn f {}( int[5] ) -> int[3] :=\n  rec f (add) := call add(1, 2)\n\nentry call f(5)\n"),
    ("add", "fn f {}( int[5] ) -> int[5] :=\n  rec f (add) := add\n\nentry call f(5)\n"),
    # an inner rec's parameter named like an outer let, in the shape pass
    ("y", "entry let y = true in let g = rec g (y) := call add(y, 1) in call g(2)\n"),
    # two parameters of one name
    ("a", "entry let g = rec g (a a) := a in call g(1, 2)\n"),
]


@pytest.mark.parametrize(
    "name, src", SHADOWING_PARAMETERS, ids=["builtin-call", "builtin", "outer-let", "twice"]
)
def test_parameter_that_shadows_a_bound_name_is_rejected(name, src):
    program = parse_program(src)
    report = check_program(program)
    assert [d.message for d in report.diagnostics()] == [
        f"shadowing of '{name}' is not supported"
    ]
    assert run_and_verify(program, report=report).kind == "not-checked"


def test_inner_rec_named_like_an_outer_binding_calls_itself():
    """As in the interpreter, the function's own name wins over the outer
    `f` inside its body, also in the shape pass."""
    program = parse_program(
        "entry let f = 1 in let g = rec f (x) := call f(x) in call g(poison)\n"
    )
    report = check_program(program)
    assert report.ok, report.diagnostics()
    verdict = run_and_verify(program, report=report, fuel=1000)
    assert verdict.passed and verdict.outcome.kind == "fuel"
