"""Differential soundness testing: generated programs, conformance checks,
and corpus running.

A checked program is run under the instrumented interpreter; the accepted
terminal outcomes are a conforming value, an aliasing violation, or fuel
exhaustion.  A stuck machine on an accepted program is a soundness bug.  A
program whose check or conformance the oracle cannot decide is blocked,
neither a bug nor a rejection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .constraints import Qualifier, Solution, apply_solution_expr
from .interp import DEFAULT_FUEL, MachineState, Perm, RunOutcome, run
from .logic import RefCtx, free_vars, interp as value_index, subst
from .oracle import Oracle, Query
from .parser import parse_program
from .printer import print_type, print_value
from .syntax import (
    BoolConst,
    Closure,
    Eq,
    Exists,
    FnSig,
    Indexed,
    Poison,
    PrimOp,
    Program,
    Ref,
    StrongPtr,
    TaggedPtr,
    Type,
    Uninit,
    Value,
    VecIndexMut,
    VecNew,
    VecPush,
)
from .typeck import Report, check_program


@dataclass
class SoundnessVerdict:
    kind: str  # "pass" | "bug" | "blocked" | "not-checked"
    outcome: Optional[RunOutcome] = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.kind == "pass"


class OracleBlocked(Exception):
    """The oracle could not decide a conformance obligation."""


def _stack_grants(state: MachineState, loc: int, tag: int) -> bool:
    stack = state.stacks.get(loc)
    if stack is None:
        return False
    return any(
        item.tag == tag and item.perm != Perm.DISABLED for item in stack
    )


def value_conforms(
    value: Value,
    typ: Type,
    state: MachineState,
    oracle: Oracle,
    solution: Solution,
    ctx: RefCtx,
) -> Tuple[bool, str]:
    """Does a terminal value inhabit the result type?  Indexed and
    existential obligations go through the oracle: closed obligations are
    checked for validity under the entry's context; obligations mentioning
    context variables are checked for consistency with it (the variables
    stand for values the run actually produced).  Pointer results must be
    live and granted in the final machine state.  Raises `OracleBlocked`
    when the oracle answers unknown."""

    def check_obligation(goal) -> Tuple[bool, str]:
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        hyps = tuple(apply_solution_expr(a, solution) for a in ctx.assumptions())
        def decide(query: Query) -> bool:
            verdict = oracle.valid(query, want_model=False)
            if verdict.is_unknown:
                raise OracleBlocked(verdict.reason)
            return verdict.is_valid

        if not free_vars(goal):
            return decide(Query(binders, hyps, goal)), "obligation not valid"
        # open obligation: refute inconsistency instead
        if decide(Query(binders, hyps + (goal,), BoolConst(False))):
            return False, "obligation inconsistent with the entry context"
        return True, ""

    match typ:
        case Indexed(_, idx):
            iv = value_index(value)
            if iv is None:
                return False, f"value {print_value(value)} has no refinement index"
            ok, why = check_obligation(Eq(apply_solution_expr(idx, solution), iv))
            if not ok:
                return False, (
                    f"index mismatch: declared {print_type(typ)}, "
                    f"value {print_value(value)} ({why})"
                )
            return True, ""
        case Exists(binder, _, pred):
            iv = value_index(value)
            if iv is None:
                return False, f"value {print_value(value)} has no refinement index"
            goal = subst(apply_solution_expr(pred, solution), binder, iv)
            ok, why = check_obligation(goal)
            if not ok:
                return False, (
                    f"predicate not satisfied: {print_type(typ)} by "
                    f"{print_value(value)} ({why})"
                )
            return True, ""
        case StrongPtr(_) | Ref(_, _):
            if not isinstance(value, TaggedPtr):
                return False, "pointer-typed result is not a pointer"
            if value.loc_id not in state.heap:
                return False, "pointer-typed result is dangling"
            if not _stack_grants(state, value.loc_id, value.tag):
                return False, "pointer-typed result is not granted by its stack"
            return True, ""
        case Uninit(_):
            if isinstance(value, Poison):
                return True, ""
            return False, "uninit-typed result is not poison"
        case FnSig():
            if isinstance(value, (Closure, PrimOp, VecNew, VecPush, VecIndexMut)):
                return True, ""
            return False, "function-typed result is not a function"
        case _:
            return False, f"no conformance rule for {print_type(typ)}"


def run_and_verify(
    program: Program,
    fuel: int = DEFAULT_FUEL,
    report: Optional[Report] = None,
    oracle: Optional[Oracle] = None,
    quals: Optional[Sequence[Qualifier]] = None,
) -> SoundnessVerdict:
    """Empirical soundness check for one program: the checker must accept,
    with the qualifiers `quals` (the default ones if None), and the
    instrumented run must not get stuck."""
    oracle = oracle or Oracle()
    if report is None:
        report = check_program(program, oracle=oracle, quals=quals)
    if report.blocked_on_oracle:
        return SoundnessVerdict("blocked", detail="checker blocked on the oracle")
    if not report.ok:
        return SoundnessVerdict("not-checked", detail="checker rejected the program")
    if program.entry is None:
        return SoundnessVerdict("pass", detail="no entry expression")

    outcome = run(program, fuel=fuel)
    if outcome.kind == "alias":
        return SoundnessVerdict("pass", outcome=outcome, detail="aliasing violation")
    if outcome.kind == "fuel":
        return SoundnessVerdict("pass", outcome=outcome, detail="fuel exhausted")
    if outcome.kind == "stuck":
        # runs are deterministic: run again, recording the events this time
        traced = run(program, fuel=fuel, trace=True)
        trace = "\n".join(ev.render() for ev in traced.state.trace[-20:])
        return SoundnessVerdict(
            "bug", outcome=outcome, detail=f"stuck: {outcome.reason}\n{trace}"
        )

    entry_unit = report.unit("entry")
    typ = entry_unit.result_type
    assert typ is not None and outcome.value is not None and outcome.state is not None
    try:
        ok, why = value_conforms(
            outcome.value,
            typ,
            outcome.state,
            oracle,
            entry_unit.solution,
            entry_unit.final_ctx,
        )
    except OracleBlocked as exc:
        detail = f"conformance blocked on the oracle: {exc}"
        return SoundnessVerdict("blocked", outcome=outcome, detail=detail)
    if ok:
        return SoundnessVerdict("pass", outcome=outcome)
    return SoundnessVerdict("bug", outcome=outcome, detail=f"non-conforming value: {why}")


# ---------------------------------------------------------------------------
# Program generation (well-typed by construction)

LIB_DECR = """\
fn decr {}( &mut {v. int[v] | v >= 0} ) -> uninit(1) :=
  rec decr (x) :=
    let y = *x in
    unpack (y, ay) in
    if call gt {ay, 0} (y, 0) {
      x := call sub {ay, 1} (y, 1)
    } else {
      poison
    }
"""

LIB_BUMP = """\
fn bump {}( &mut {v. int[v] | v >= 0} ) -> uninit(1) :=
  rec bump (x) :=
    let y = *x in
    unpack (y, ay) in
    x := call add {ay, 1} (y, 1)
"""

LIB_IDX_SET = """\
fn idx_set {n: int, k: int, l: loc | 0 <= k && k < n | l -> Vec<{v. int[v] | v >= 0}>[n]}( ptr(l), int[k] ) -> uninit(1); l -> Vec<{v. int[v] | v >= 0}>[n] :=
  rec idx_set (p i) :=
    let r = &mut p in
    let er = call vec_index_mut(r, i) in
    er := 7
"""

LIB_FILL = """\
fn fill {n: int | n >= 0}( int[n] ) -> Vec<{v. int[v] | true}>[n] :=
  rec fill {n: int} (nv) :=
    let vp = new(lv) in
    let t0 = vp := call vec_new<int>() in
    let ip = new(li) in
    let t1 = ip := 0 in
    let loop = rec loop (u) :=
      let iv = *ip in
      if call lt (iv, nv) {
        let t2 = call vec_push(vp, 0) in
        let t3 = ip := call add (iv, 1) in
        call loop(poison)
      } else {
        *vp
      }
    in call loop(poison)
"""

_LIBS = {"decr": LIB_DECR, "bump": LIB_BUMP, "idx_set": LIB_IDX_SET, "fill": LIB_FILL}


class _Gen:
    """Statement-by-statement generator tracking enough abstract state to
    stay well-typed by construction."""

    def __init__(self, rng: random.Random, budget: int):
        self.rng = rng
        self.budget = budget
        self.lines: List[str] = []
        self.tmp = 0
        self.ints: List[Tuple[str, bool]] = []  # (name, known nonnegative)
        self.cells: List[Tuple[str, bool]] = []  # (name, currently nonneg int)
        self.mutrefs: List[str] = []  # &mut nat references
        self.vecs: List[Tuple[str, int]] = []  # (name, statically known length)
        self.used_libs: set = set()

    def fresh(self, base: str) -> str:
        self.tmp += 1
        return f"{base}{self.tmp}"

    def line(self, text: str) -> None:
        self.lines.append(text)

    # -- statement makers ------------------------------------------------

    def stmt_const(self):
        name = self.fresh("n")
        value = self.rng.randrange(0, 10)
        self.line(f"let {name} = {value} in")
        self.ints.append((name, True))

    def stmt_arith(self):
        if not self.ints:
            return self.stmt_const()
        op = self.rng.choice(["add", "add", "mul", "sub"])
        a, a_nn = self.rng.choice(self.ints)
        b, b_nn = self.rng.choice(self.ints)
        name = self.fresh("n")
        self.line(f"let {name} = call {op}({a}, {b}) in")
        nonneg = op in ("add", "mul") and a_nn and b_nn
        self.ints.append((name, nonneg))

    def stmt_new_cell(self):
        name = self.fresh("c")
        value = self.rng.randrange(0, 8)
        self.line(f"let {name} = new(l{name}) in")
        self.line(f"let {self.fresh('t')} = {name} := {value} in")
        self.cells.append((name, True))

    def stmt_cell_update(self):
        if not self.cells:
            return self.stmt_new_cell()
        name, _ = self.rng.choice(self.cells)
        value = self.rng.randrange(0, 8)
        self.line(f"let {self.fresh('t')} = {name} := {value} in")
        self.cells = [(c, True if c == name else nn) for c, nn in self.cells]

    def stmt_strong_reborrow(self):
        if not self.cells:
            return self.stmt_new_cell()
        name, nn = self.rng.choice(self.cells)
        alias = self.fresh("s")
        self.line(f"let {alias} = &strg {name} in")
        value = self.rng.randrange(0, 8)
        self.line(f"let {self.fresh('t')} = {alias} := {value} in")

    def stmt_read_cell(self):
        if not self.cells:
            return self.stmt_new_cell()
        name, nn = self.rng.choice(self.cells)
        out = self.fresh("n")
        self.line(f"let {out} = *{name} in")
        self.ints.append((out, nn))

    def stmt_mutref_roundtrip(self):
        """Borrow a nonneg cell, optionally pass it to a library mutator,
        read it back through the strong pointer."""
        cells = [c for c in self.cells if c[1]]
        if not cells:
            return self.stmt_new_cell()
        name, _ = self.rng.choice(cells)
        ref = self.fresh("r")
        self.line(f"let {ref} = &mut {name} in")
        lib = self.rng.choice(["decr", "bump", None])
        if lib:
            self.used_libs.add(lib)
            self.line(f"let {self.fresh('t')} = call {lib}({ref}) in")
        else:
            shr = self.fresh("s")
            self.line(f"let {shr} = &shr {ref} in")
            out = self.fresh("n")
            self.line(f"let {out} = *{shr} in")
            self.ints.append((out, False))

    def stmt_branch(self):
        if not self.ints:
            self.stmt_const()
        a, _ = self.rng.choice(self.ints)
        b, _ = self.rng.choice(self.ints)
        cmp_op = self.rng.choice(["lt", "gt", "le", "ge", "eq"])
        cond = self.fresh("b")
        self.line(f"let {cond} = call {cmp_op}({a}, {b}) in")
        v1 = self.rng.randrange(0, 6)
        v2 = self.rng.randrange(0, 6)
        out = self.fresh("n")
        if self.cells and self.rng.random() < 0.5:
            cell, _ = self.rng.choice(self.cells)
            self.line(
                f"let {out} = if {cond} {{ let {self.fresh('t')} = {cell} := {v1} "
                f"in {v1} }} else {{ {v2} }} in"
            )
            self.cells = [(c, True if c == cell else nn) for c, nn in self.cells]
        else:
            self.line(f"let {out} = if {cond} {{ {v1} }} else {{ {v2} }} in")
        self.ints.append((out, True))

    def stmt_new_vec(self):
        name = self.fresh("v")
        self.line(f"let {name} = new(l{name}) in")
        self.line(f"let {self.fresh('t')} = {name} := call vec_new<int>() in")
        self.vecs.append((name, 0))

    def stmt_vec_push(self):
        if not self.vecs:
            return self.stmt_new_vec()
        idx = self.rng.randrange(len(self.vecs))
        name, length = self.vecs[idx]
        value = self.rng.randrange(0, 9)
        self.line(f"let {self.fresh('t')} = call vec_push({name}, {value}) in")
        self.vecs[idx] = (name, length + 1)

    def stmt_vec_index(self):
        candidates = [(n, l) for n, l in self.vecs if l > 0]
        if not candidates:
            return self.stmt_vec_push()
        name, length = self.rng.choice(candidates)
        k = self.rng.randrange(0, length)
        self.used_libs.add("idx_set")
        self.line(f"let {self.fresh('t')} = call idx_set({name}, {k}) in")

    def stmt_fill(self):
        n = self.rng.randrange(0, 5)
        out = self.fresh("w")
        self.used_libs.add("fill")
        self.line(f"let {out} = call fill {{{n}}} ({n}) in")

    def result(self) -> str:
        pool: List[str] = [name for name, _ in self.ints]
        pool.extend(name for name, _ in self.cells)
        if not pool:
            return str(self.rng.randrange(0, 5))
        name = self.rng.choice(pool)
        if any(name == c for c, _ in self.cells):
            return f"*{name}"
        return name


def generate_program(seed: int, budget: int = 10) -> Program:
    """Deterministic well-typed-by-construction program over allocations,
    borrows, branches, vector traffic, and loops."""
    rng = random.Random(seed)
    gen = _Gen(rng, budget)
    steps = [
        (gen.stmt_const, 2),
        (gen.stmt_arith, 2),
        (gen.stmt_new_cell, 2),
        (gen.stmt_cell_update, 1),
        (gen.stmt_read_cell, 2),
        (gen.stmt_strong_reborrow, 1),
        (gen.stmt_mutref_roundtrip, 2),
        (gen.stmt_branch, 2),
        (gen.stmt_new_vec, 1),
        (gen.stmt_vec_push, 2),
        (gen.stmt_vec_index, 1),
        (gen.stmt_fill, 1),
    ]
    names = [s for s, w in steps for _ in range(w)]
    for _ in range(max(budget, 1)):
        rng.choice(names)()
    body = "\n  ".join(gen.lines + [gen.result()])
    libs = "\n".join(_LIBS[name] for name in sorted(gen.used_libs))
    source = f"{libs}\n\nentry\n  {body}\n"
    return parse_program(source)


# ---------------------------------------------------------------------------
# Corpus running

@dataclass
class CorpusResult:
    """Verdicts of a set of programs, keyed by seed or by file name."""

    total: int = 0
    passed: int = 0
    bugs: List[Tuple[object, str]] = field(default_factory=list)
    blocked: List[Tuple[object, str]] = field(default_factory=list)
    rejected: List[object] = field(default_factory=list)
    rule_coverage: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.bugs and not self.blocked and not self.rejected

    def record(self, key: object, verdict: SoundnessVerdict) -> None:
        """Count one program: a check or obligation blocked on the oracle
        is neither a soundness bug nor a rejection by the checker."""
        self.total += 1
        if verdict.kind == "not-checked":
            self.rejected.append(key)
        elif verdict.kind == "blocked":
            self.blocked.append((key, verdict.detail))
        elif verdict.passed:
            self.passed += 1
            if verdict.outcome is not None and verdict.outcome.state is not None:
                for rule, count in verdict.outcome.state.rule_counter.items():
                    self.rule_coverage[rule] = self.rule_coverage.get(rule, 0) + count
        else:
            self.bugs.append((key, verdict.detail))


def soundness_sweep(
    seeds: Sequence[int],
    budget: int = 10,
    fuel: int = DEFAULT_FUEL,
    oracle: Optional[Oracle] = None,
    quals: Optional[Sequence[Qualifier]] = None,
) -> CorpusResult:
    """Generate one program per seed; every program must check with `quals`
    and must not get stuck when run."""
    result = CorpusResult()
    oracle = oracle or Oracle()
    for seed in seeds:
        program = generate_program(seed, budget)
        verdict = run_and_verify(program, fuel=fuel, oracle=oracle, quals=quals)
        result.record(seed, verdict)
    return result
