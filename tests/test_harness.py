"""Differential soundness harness: generator properties, conformance
verdicts, the soundness-bug fixture, and the mutation suite."""

import glob
import time

import pytest

from lrcheck.harness import (
    generate_program,
    run_and_verify,
    soundness_sweep,
)
from lrcheck.oracle import Oracle, Verdict
from lrcheck.parser import parse_program
from lrcheck.printer import print_program
from lrcheck.syntax import IntLit, Uninit
from lrcheck.typeck import check_program


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


def test_generator_seed0_accepted(oracle):
    program = generate_program(0, budget=10)
    report = check_program(program, oracle=oracle)
    assert report.ok


def test_generator_budget_zero_minimal():
    program = generate_program(5, budget=0)
    assert program.entry is not None
    report = check_program(program)
    assert report.ok


def test_generator_deterministic():
    a = print_program(generate_program(123, budget=9))
    b = print_program(generate_program(123, budget=9))
    assert a == b


def test_generator_budget_160_checks_runs_and_conforms(record_property):
    """One inferred solution here is a conjunction of about 500 qualifier
    instances; nothing on the way from checking to conformance recurses
    once per conjunct."""
    start = time.perf_counter()
    program = generate_program(0, budget=160)
    report = check_program(program)
    verdict = run_and_verify(program, report=report)
    record_property("seconds", round(time.perf_counter() - start, 2))
    assert report.ok
    assert verdict.passed, verdict.detail


def test_generator_soundness_sample(oracle):
    result = soundness_sweep(range(25), budget=8, oracle=oracle)
    assert result.ok, (result.rejected, result.bugs)
    assert result.passed == 25


def test_rule_coverage_across_seeds(oracle):
    result = soundness_sweep(range(60), budget=12, oracle=oracle)
    assert result.ok
    expected_rules = {
        "let",
        "let-new",
        "if",
        "assign",
        "deref",
        "borrow-mut",
        "borrow-shr",
        "borrow-strong",
        "call-rec",
        "call-prim",
        "vec-new",
        "vec-push",
        "vec-index-mut",
    }
    assert expected_rules <= set(result.rule_coverage)


def test_decr_driver_passes(oracle):
    src = open("corpus/accept/decr.lr").read() + (
        "\nentry\n  let c = new(l) in\n  let t0 = c := 1 in\n"
        "  let r = &mut c in\n  let t1 = call decr(r) in\n  *c\n"
    )
    program = parse_program(src)
    verdict = run_and_verify(program, oracle=oracle)
    assert verdict.passed
    assert verdict.outcome.kind == "done"
    assert verdict.outcome.value == IntLit(0)


def test_divergence_is_accepted(oracle):
    src = "entry let f = rec f (x) := call f(x) in call f(poison)"
    verdict = run_and_verify(parse_program(src), fuel=200, oracle=oracle)
    assert verdict.passed
    assert verdict.outcome.kind == "fuel"


def test_alias_error_is_accepted(oracle):
    src = (
        "entry\n  let c = new(l) in\n  let t0 = c := 1 in\n"
        "  let s = &strg c in\n  let t1 = s := 5 in\n"
        "  let t2 = c := 6 in\n  s := 7\n"
    )
    verdict = run_and_verify(parse_program(src), oracle=oracle)
    assert verdict.passed
    assert verdict.outcome.kind == "alias"


def test_unchecked_program_not_run(oracle):
    src = open("corpus/mutants/decr_noguard.lr").read() + "\nentry 1\n"
    verdict = run_and_verify(parse_program(src), oracle=oracle)
    assert verdict.kind == "not-checked"


def test_soundness_bug_fixture(monkeypatch, oracle):
    """A checker with the uninitialized-read rejection disabled accepts a
    program that gets stuck on poison; the harness must flag it."""
    from lrcheck import typeck
    from lrcheck.errors import DerefUninit

    src = "entry\n  let c = new(l) in\n  if *c { 1 } else { 2 }\n"
    program = parse_program(src)
    report = check_program(program, oracle=oracle)
    assert not report.ok  # sound checker rejects

    original = typeck.Checker.synth_deref

    def unsound(self, place, span):
        from lrcheck.syntax import BoolBase, BoolConst, Indexed

        try:
            return original(self, place, span)
        except DerefUninit:
            return Indexed(BoolBase(), BoolConst(True))

    monkeypatch.setattr(typeck.Checker, "synth_deref", unsound)
    unsound_report = check_program(program, oracle=oracle)
    assert unsound_report.ok
    verdict = run_and_verify(program, report=unsound_report, oracle=oracle)
    assert verdict.kind == "bug"
    assert "stuck" in verdict.detail
    # the detail ends with the stuck run's last trace events
    assert verdict.detail.splitlines()[1:] == [
        "0 alloc loc=0 tag=0 stack=[(Unique,0)]",
        "1 read loc=0 tag=0 stack=[(Unique,0)]",
    ]


def test_nonconforming_value_is_a_bug(oracle):
    """A forged report claiming the wrong index must be caught."""
    program = parse_program("entry 5")
    report = check_program(program, oracle=oracle)
    entry = report.unit("entry")
    from lrcheck.syntax import Indexed, IntBase, IntConst

    entry.result_type = Indexed(IntBase(), IntConst(6))
    verdict = run_and_verify(program, report=report, oracle=oracle)
    assert verdict.kind == "bug"
    assert "index mismatch" in verdict.detail


class UndecidedOracle(Oracle):
    """Answers every term-level query unknown."""

    def valid(self, query, want_model=True):
        return Verdict("unknown", reason="undecided")


def test_undecided_oracle_blocks_rather_than_rejects_or_fails(oracle):
    """What the oracle cannot decide is neither a rejection nor a bug."""
    # `a * a = 2` has no integer solution, and no integer model is found
    program = parse_program(
        "fn sq {a: int | a * a = 2}( int[a] ) -> {v. int[v] | v >= 0} :=\n"
        "  rec sq (x) := x\n"
        "entry 5\n"
    )
    verdict = run_and_verify(program, oracle=oracle)
    assert verdict.kind == "blocked" and "checker" in verdict.detail
    # checked by the oracle: only the conformance check is blocked
    program = parse_program("entry 5")
    report = check_program(program, oracle=oracle)
    verdict = run_and_verify(program, report=report, oracle=UndecidedOracle())
    assert verdict.kind == "blocked" and "conformance" in verdict.detail
    assert verdict.outcome.kind == "done"


def test_mutants_rejected_or_flagged(oracle):
    for path in sorted(glob.glob("corpus/mutants/*.lr")):
        program = parse_program(open(path).read())
        report = check_program(program, oracle=oracle)
        if report.ok:
            verdict = run_and_verify(program, report=report, oracle=oracle)
            assert not verdict.passed, path
        else:
            assert not report.ok  # rejected statically


def test_curated_corpus_runs_clean(oracle):
    for path in sorted(glob.glob("corpus/accept/*.lr")):
        src = open(path).read()
        program = parse_program(src)
        report = check_program(program, oracle=oracle)
        assert report.ok, path
        if program.entry is not None:
            verdict = run_and_verify(program, report=report, oracle=oracle)
            assert verdict.passed, path


def test_pointer_result_conformance(oracle):
    """A returned mutable borrow must be live and granted in the final
    machine state."""
    src = (
        "entry\n  let c = new(l) in\n  let t0 = c := 1 in\n  &mut c\n"
    )
    verdict = run_and_verify(parse_program(src), oracle=oracle)
    assert verdict.passed and verdict.outcome.kind == "done"


def test_function_result_conformance(oracle):
    verdict = run_and_verify(parse_program("entry rec f (x) := x"), oracle=oracle)
    assert verdict.passed


def test_uninit_result_conformance(oracle):
    program = parse_program("entry poison")
    report = check_program(program, oracle=oracle)
    assert report.exit_code == 0
    assert isinstance(report.unit("entry").result_type, Uninit)
    verdict = run_and_verify(program, report=report, oracle=oracle)
    assert verdict.passed and verdict.outcome.kind == "done"


def test_a_call_opens_the_existential_a_join_leaves_in_a_cell(oracle):
    """The join leaves an existential in the vector's cell; the second
    push opens it to find the vector's element type."""
    src = (
        "entry\n  let v = new(lv) in\n  let t0 = v := call vec_new<int>() in\n"
        "  let b = call lt(1, 2) in\n"
        "  let t1 = if b { call vec_push(v, 1) } else { poison } in\n"
        "  let t2 = call vec_push(v, 2) in\n  0\n"
    )
    program = parse_program(src)
    report = check_program(program, oracle=oracle)
    assert report.exit_code == 0
    verdict = run_and_verify(program, report=report, oracle=oracle)
    assert verdict.passed and verdict.outcome.kind == "done"


def test_strong_pointer_cannot_escape(oracle):
    src = (
        "entry\n  let c = new(l) in\n  let t0 = c := 1 in\n  &strg c\n"
    )
    report = check_program(parse_program(src), oracle=oracle)
    assert not report.ok
    diag = report.unit("entry").diagnostics[0]
    assert diag.rule == "EscapeError"


@pytest.mark.parametrize("driver", ["decr_driver", "ref_join_driver"])
def test_conformance_never_searches_for_models(monkeypatch, driver):
    """Conformance reads only whether an obligation is valid, so it must not
    pay for counter-models."""
    import lrcheck.oracle

    def no_search(*args, **kwargs):
        raise AssertionError("counter-model search during conformance")

    monkeypatch.setattr(lrcheck.oracle, "_search_counter_model", no_search)
    with open(f"corpus/accept/{driver}.lr", encoding="utf-8") as handle:
        program = parse_program(handle.read())
    verdict = run_and_verify(program, oracle=Oracle())
    assert verdict.passed, verdict.detail
