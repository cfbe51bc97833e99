"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line through the summary hook in conftest."""

import glob
import subprocess
import sys
import time

import pytest

from lrcheck.harness import run_and_verify, soundness_sweep
from lrcheck.oracle import Oracle, Query
from lrcheck.parser import parse_program
from lrcheck.parser import parse_refexpr as R
from lrcheck.syntax import Cmp, Eq, IntConst, KApp, Not, Sort, Var
from lrcheck.typeck import check_program

ACCEPT = sorted(glob.glob("corpus/accept/*.lr"))
REJECT = sorted(glob.glob("corpus/reject/*.lr"))
MUTANTS = sorted(glob.glob("corpus/mutants/*.lr"))


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


def _check(path, oracle):
    return check_program(parse_program(open(path).read()), oracle=oracle)


def test_criterion_1_decr(oracle):
    """decr verifies with exactly one nontrivial clause; the guard-removed
    mutant is rejected; runtime < 1 s."""
    t0 = time.time()
    report = _check("corpus/accept/decr.lr", oracle)
    unit = report.unit("decr")
    assert unit.status == "verified"
    assert len(unit.clauses) == 1
    clause = unit.clauses[0]
    assert set(clause.hyps) == {R("ay >= 0"), R("ay > 0")}
    assert clause.head == R("ay - 1 >= 0")
    verdict = oracle.valid(
        Query(clause.binders, clause.hyps, clause.head)
    )
    assert verdict.is_valid

    mutant = _check("corpus/mutants/decr_noguard.lr", Oracle())
    assert mutant.unit("decr").status == "rejected"
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def _kvar_edges(clauses):
    """Directed unknown-to-unknown flow edges from single-hypothesis
    clauses, for matching the join shape up to renaming."""
    edges = set()
    for cl in clauses:
        if not isinstance(cl.head, KApp):
            continue
        kapps = [h for h in cl.hyps if isinstance(h, KApp)]
        others = [h for h in cl.hyps if not isinstance(h, KApp)]
        if len(kapps) == 1 and not others:
            edges.add((kapps[0].kvar.name, cl.head.kvar.name))
    return edges


def test_criterion_2_ref_join(oracle):
    """ref_join produces the two-branch join shape over three unknowns whose
    solution entails v >= 0 for each; the program verifies; < 1 s."""
    t0 = time.time()
    report = _check("corpus/accept/ref_join.lr", oracle)
    unit = report.unit("ref_join")
    assert unit.status == "verified"

    from lrcheck.constraints import kvars_of

    kvars = kvars_of(unit.constraint)
    assert len(kvars) == 3

    # guarded branch clauses: guard, v = 1 |- k_then(v); !guard, v = 2 |- k_else(v)
    def guarded_head(const, positive):
        for cl in unit.clauses:
            if not isinstance(cl.head, KApp):
                continue
            has_binding = any(
                isinstance(h, Eq) and h.rhs == IntConst(const) for h in cl.hyps
            )
            has_guard = any(
                (isinstance(h, Var) if positive else isinstance(h, Not))
                for h in cl.hyps
            )
            if has_binding and has_guard:
                return cl.head.kvar.name
        return None

    k_then = guarded_head(1, positive=True)
    k_else = guarded_head(2, positive=False)
    assert k_then and k_else and k_then != k_else

    # the join unknown flows both ways with each branch unknown
    edges = _kvar_edges(unit.clauses)
    joins = [
        k.name
        for k in kvars
        if k.name not in (k_then, k_else)
        and {(k_then, k.name), (k.name, k_then), (k_else, k.name), (k.name, k_else)}
        <= edges
    ]
    assert len(joins) == 1

    sol = unit.solution
    for name, params in sol.params.items():
        nu = Var(params[0][0])
        assert oracle.valid(
            Query(params, (sol.assignment[name],), Cmp(">=", nu, IntConst(0)))
        ).is_valid
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_make_vec(oracle):
    """make_vec dumps exactly the three-clause vector condition and both
    unknowns solve to v > 0; < 1 s."""
    t0 = time.time()
    report = _check("corpus/accept/make_vec.lr", oracle)
    unit = report.unit("make_vec")
    assert unit.status == "verified"
    assert len(unit.clauses) == 3

    def is_kapp_only(exprs, n):
        return sum(isinstance(e, KApp) for e in exprs) == n

    flow, init, goal = None, None, None
    for cl in unit.clauses:
        kapp_hyps = [h for h in cl.hyps if isinstance(h, KApp)]
        if isinstance(cl.head, KApp) and kapp_hyps:
            flow = cl
        elif isinstance(cl.head, KApp):
            init = cl
        else:
            goal = cl
    assert flow is not None and init is not None and goal is not None
    # k1(v) => k2(v)
    assert flow.hyps[-1].kvar.name != flow.head.kvar.name
    assert list(flow.hyps[-1].args) == list(flow.head.args)
    # v = 42 => k2(v)
    eq = [h for h in init.hyps if isinstance(h, Eq)]
    assert eq and eq[0].rhs == IntConst(42)
    assert init.head.kvar.name == flow.head.kvar.name
    # k2(v) => v > 0
    assert isinstance(goal.head, Cmp) and goal.head.op == ">"
    assert goal.head.rhs == IntConst(0)
    assert isinstance(goal.hyps[-1], KApp)
    assert goal.hyps[-1].kvar.name == flow.head.kvar.name

    sol = unit.solution
    assert len(sol.assignment) == 2
    for name, params in sol.params.items():
        nu = Var(params[0][0])
        assert oracle.valid(
            Query(params, (sol.assignment[name],), Cmp(">", nu, IntConst(0)))
        ).is_valid
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_4_init_zeros(oracle):
    """init_zeros infers the two-variable loop template, the solved
    invariant entails equality of the counters, and the declared vector
    length verifies; < 2 s."""
    t0 = time.time()
    report = _check("corpus/accept/init_zeros.lr", oracle)
    unit = report.unit("init_zeros")
    assert unit.status == "verified"
    sol = unit.solution
    candidates = [
        (name, params)
        for name, params in sol.params.items()
        if len(params) == 3 and all(s == Sort.INT for _, s in params)
    ]
    assert candidates, "no three-parameter loop invariant found"
    entailed = False
    for name, params in candidates:
        b, c = Var(params[0][0]), Var(params[1][0])
        if oracle.valid(
            Query(params, (sol.assignment[name],), Eq(b, c))
        ).is_valid:
            entailed = True
    assert entailed
    elapsed = time.time() - t0
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_criterion_5_rejection_suite():
    """Out-of-bounds indexing, length mismatch, and negative-into-nat all
    exit 1 with a failed-clause diagnostic at the right span; every other
    rejection-corpus program also exits 1."""
    expected_spans = {
        "corpus/reject/oob_index.lr": "13:3",
        "corpus/reject/len_mismatch.lr": "2:1",
        "corpus/reject/neg_into_nat.lr": "4:5",
    }
    for path in REJECT:
        proc = subprocess.run(
            [sys.executable, "-m", "lrcheck.cli", "check", path],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, path
        if path in expected_spans:
            assert "cannot prove clause" in proc.stderr, path
            assert expected_spans[path] in proc.stderr, (path, proc.stderr)


def test_criterion_6_differential_soundness():
    """1000 generated programs plus the curated corpus: no stuck outcomes
    at fuel 10^5; < 5 min."""
    t0 = time.time()
    oracle = Oracle()
    result = soundness_sweep(range(1000), budget=10, fuel=100_000, oracle=oracle)
    assert result.total == 1000
    assert not result.rejected, result.rejected[:5]
    assert not result.blocked, result.blocked[:2]
    assert not result.bugs, result.bugs[:2]
    for path in ACCEPT:
        program = parse_program(open(path).read())
        report = check_program(program, oracle=oracle)
        assert report.ok, path
        if program.entry is not None:
            verdict = run_and_verify(
                program, fuel=100_000, report=report, oracle=oracle
            )
            assert verdict.passed, path
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_7_stack_semantics():
    """The four stack-transition properties over 10^4 randomized events and
    the crafted stale-mutable-write program."""
    import test_interp

    test_interp.test_randomized_event_suite()
    test_interp.test_run_stale_mutable_write_alias_error()


def test_criterion_8_lemma_property_suites(oracle):
    """Substitution, subtyping, framing, value-refinement, and the seven
    oracle assumptions; every suite >= 200 cases, total < 2 min."""
    t0 = time.time()
    import test_logic
    import test_oracle
    import test_subtyping
    import test_typeck

    test_logic.test_subst_identity_when_not_free()
    test_logic.test_subst_composition_lemma()
    test_logic.test_subst_concatenation_over_locctx()
    test_subtyping.test_subtyping_reflexive(oracle)
    test_subtyping.test_subtyping_transitive_on_base_types(oracle)
    test_typeck.test_framing_randomized(oracle)
    test_typeck.test_value_refinement_conformance(oracle)
    test_oracle.test_meta_weakening(oracle)
    test_oracle.test_meta_cut(oracle)
    test_oracle.test_meta_identity(oracle)
    test_oracle.test_meta_reflexivity(oracle)
    test_oracle.test_meta_transitive_equality(oracle)
    test_oracle.test_meta_transitivity_of_implication(oracle)
    test_oracle.test_meta_substitution(oracle)
    elapsed = time.time() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_9_determinism():
    """Two consecutive dump runs over the full corpus are byte-identical."""
    paths = ACCEPT + REJECT + MUTANTS
    args = [
        sys.executable,
        "-m",
        "lrcheck.cli",
        "check",
        *paths,
        "--dump-constraints",
        "--dump-solution",
    ]
    first = subprocess.run(args, capture_output=True, timeout=300)
    second = subprocess.run(args, capture_output=True, timeout=300)
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert first.returncode == second.returncode
    assert first.stdout
