"""Shape inference and the liquid fixpoint solver, pinned against the
worked join-point, vector, and loop-invariant solutions."""

import glob
import random
from collections import Counter

import pytest

from gen import bool_expr, borrow_chain, int_expr

from lrcheck.constraints import (
    META,
    NU,
    Conj,
    ForAll,
    Head,
    Provenance,
    Solution,
    apply_solution_expr,
    clauses,
    default_qualifiers,
    dump_clauses_text,
    instance,
    instantiations,
    kvars_of,
    normalize,
    parse_qualifier,
)
from lrcheck.errors import ShapeMismatch, StructuralError
from lrcheck.harness import generate_program
from lrcheck.infer import (
    KVarSupply,
    _Candidates,
    fresh_kvar_type,
    infer_rec_signature,
    join_types,
    solve,
)
from lrcheck.logic import RefCtx, SortError, conj, sortcheck, subst_parallel
from lrcheck.oracle import Oracle, Query, Verdict, eval_closed
from lrcheck.printer import print_type
from lrcheck.parser import parse_program, parse_refexpr as R, parse_type
from lrcheck.subtyping import NameSupply
from lrcheck.syntax import (
    AbstractLoc,
    BoolConst,
    Exists,
    Indexed,
    IntBase,
    IntConst,
    KApp,
    KVarDecl,
    LocCtx,
    Not,
    Sort,
    Span,
    Var,
)
from lrcheck.typeck import check_program

PROV = Provenance("test")


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


def reference_instantiations(kvar, quals):
    """The candidate terms of a kvar, as `instantiations` built them when
    candidates were terms: a reference for its order and deduplication."""
    out = []
    for i, (pname, psort) in enumerate(kvar.params):
        nu = Var(pname)
        for q in quals:
            if q.sort != psort:
                continue
            if not q.uses_meta:
                out.append(subst_parallel(q.template, {NU: nu}))
                continue
            for j, (mname, msort) in enumerate(kvar.params):
                if j == i or msort != psort:
                    continue
                out.append(subst_parallel(q.template, {NU: nu, META: Var(mname)}))
    return list(dict.fromkeys(out))


def reference_fixpoint(constraint, quals):
    """The greatest fixpoint over candidate terms, each goal asked through
    the term-level oracle entry: each kvar's kept terms, and the number of
    terms deleted."""
    norm = normalize(constraint)
    kvars = kvars_of(norm)
    kept = {k.name: reference_instantiations(k, quals) for k in kvars}
    oracle = Oracle()
    deletions = 0
    changed = True
    while changed:
        changed = False
        for clause in clauses(norm):
            if not clause.is_kvar_head():
                continue
            solution = Solution()
            for k in kvars:
                solution.assign(k, conj(kept[k.name]))
            hyps = tuple(apply_solution_expr(h, solution) for h in clause.hyps)
            head = clause.head
            at = {p: a for (p, _), a in zip(head.kvar.params, head.args)}
            terms = kept[head.kvar.name]
            goals = [subst_parallel(t, at) for t in terms]
            verdicts = oracle.valid_many(clause.binders, hyps, goals)
            survivors = [t for t, v in zip(terms, verdicts) if v.is_valid]
            if len(survivors) < len(terms):
                deletions += len(terms) - len(survivors)
                kept[head.kvar.name] = survivors
                changed = True
    return kept, deletions


def test_fresh_kvar_type_includes_scope():
    ctx = RefCtx().bind("a", Sort.BOOL)
    t = fresh_kvar_type(KVarSupply(), NameSupply(), ctx, IntBase())
    assert isinstance(t, Exists) and isinstance(t.pred, KApp)
    assert [s for _, s in t.pred.kvar.params] == [Sort.INT, Sort.BOOL]
    assert t.pred.args[1] == Var("a")


JOIN_CTX = RefCtx().bind("a", Sort.INT)


def _template(kvars, names):
    return fresh_kvar_type(kvars, names, JOIN_CTX, IntBase())


# the guard of the `if` whose branches are joined
GUARD = R("a > 0")

# (left, right) -> joined type, then per emission its clause dump
JOIN_TABLE = {
    "equal": (
        lambda kv, n: (parse_type("int[a]"), parse_type("int[a]")),
        "int[a]",
        [],
    ),
    "mut_ref": (
        lambda kv, n: (parse_type("&mut int[1]"), parse_type("&mut int[2]")),
        "&mut {v%0. int[v%0] | $k0(v%0, a)}",
        [
            "clause 0 [v%1:int] [v%1 = 1] => $k0(v%1, a) @ - test\n"
            "clause 1 [v%2:int] [$k0(v%2, a)] => v%2 = 1 @ - test",
            "clause 0 [v%3:int] [v%3 = 2] => $k0(v%3, a) @ - test\n"
            "clause 1 [v%4:int] [$k0(v%4, a)] => v%4 = 2 @ - test",
        ],
    ),
    "shr_ref": (
        lambda kv, n: (parse_type("&shr int[1]"), parse_type("&shr int[2]")),
        "&shr {v%0. int[v%0] | $k0(v%0, a)}",
        [
            "clause 0 [v%1:int] [a > 0; v%1 = 1] => $k0(v%1, a) @ - test",
            "clause 0 [v%2:int] [!(a > 0); v%2 = 2] => $k0(v%2, a) @ - test",
        ],
    ),
    "template_left": (
        lambda kv, n: (_template(kv, n), parse_type("int[2]")),
        "{v%0. int[v%0] | $k0(v%0, a)}",
        ["clause 0 [v%1:int] [!(a > 0); v%1 = 2] => $k0(v%1, a) @ - test"],
    ),
    "template_right": (
        lambda kv, n: (parse_type("int[1]"), _template(kv, n)),
        "{v%0. int[v%0] | $k0(v%0, a)}",
        ["clause 0 [v%1:int] [a > 0; v%1 = 1] => $k0(v%1, a) @ - test"],
    ),
    "indexed_ints": (
        lambda kv, n: (parse_type("int[1]"), parse_type("int[a]")),
        "{v%0. int[v%0] | $k0(v%0, a)}",
        [
            "clause 0 [v%1:int] [a > 0; v%1 = 1] => $k0(v%1, a) @ - test",
            "clause 0 [] [!(a > 0)] => $k0(a, a) @ - test",
        ],
    ),
    "vecs": (
        lambda kv, n: (parse_type("Vec<int[1]>[a]"), parse_type("Vec<int[2]>[3]")),
        "{v%1. Vec<{v%0. int[v%0] | $k0(v%0, a)}>[v%1] | $k1(v%1, a)}",
        [
            "clause 0 [v%2:int] [a > 0; v%2 = 1] => $k0(v%2, a) @ - test\n"
            "clause 1 [] [a > 0] => $k1(a, a) @ - test",
            "clause 0 [v%3:int] [!(a > 0); v%3 = 2] => $k0(v%3, a) @ - test\n"
            "clause 1 [v%4:int] [!(a > 0); v%4 = 3] => $k1(v%4, a) @ - test",
        ],
    ),
}


@pytest.mark.parametrize("case", list(JOIN_TABLE))
def test_join_types_table(case):
    """The joined type, its kvar names, and each emission's clauses, in
    order: `&mut` pointees flow both ways under neither guard, a reused
    template takes only the other side, and every other join takes the
    then side under the guard and the else side under its negation."""
    make, joined_text, emitted = JOIN_TABLE[case]
    kvars, names = KVarSupply(), NameSupply()
    t1, t2 = make(kvars, names)
    joined, emissions = join_types(JOIN_CTX, kvars, names, t1, t2, GUARD, PROV)
    assert print_type(joined) == joined_text
    assert [dump_clauses_text(clauses(normalize(c))) for c in emissions] == emitted


def test_join_types_of_int_and_bool_is_incompatible():
    span = Span(3, 5, 7, 6)
    with pytest.raises(StructuralError, match="branches produce incompatible types") as exc:
        join_types(
            JOIN_CTX, KVarSupply(), NameSupply(),
            parse_type("int[1]"), parse_type("bool[true]"), GUARD,
            Provenance("if-join", span),
        )
    assert exc.value.span == span


def test_fresh_kvar_type_empty_scope():
    from lrcheck.syntax import BoolBase

    t = fresh_kvar_type(KVarSupply(), NameSupply(), RefCtx(), BoolBase())
    assert isinstance(t.pred, KApp) and len(t.pred.kvar.params) == 1


def test_fresh_kvar_applications_sortcheck():
    ctx = RefCtx().bind("a", Sort.BOOL)
    t = fresh_kvar_type(KVarSupply(), NameSupply(), ctx, IntBase())
    inner = ctx.bind(t.binder, Sort.INT)
    assert sortcheck(inner, t.pred) == Sort.BOOL
    bad = KApp(t.pred.kvar, (Var("a"), Var("a")))
    with pytest.raises(SortError):
        sortcheck(inner, bad)


def test_fresh_kvar_excludes_locations():
    ctx = RefCtx().bind("l", Sort.LOC).bind("n", Sort.INT)
    t = fresh_kvar_type(KVarSupply(), NameSupply(), ctx, IntBase())
    assert [s for _, s in t.pred.kvar.params] == [Sort.INT, Sort.INT]


def test_fresh_kvar_type_fresh_per_site():
    kvars = KVarSupply()
    names = NameSupply()
    t1 = fresh_kvar_type(kvars, names, RefCtx(), IntBase())
    t2 = fresh_kvar_type(kvars, names, RefCtx(), IntBase())
    assert t1.pred.kvar.name != t2.pred.kvar.name


# -- rec-signature templates -----------------------------------------------------


def _loop_contexts():
    """The counting-loop join contexts: i starts at 0 and steps by one, the
    vector grows in lockstep, n is never written."""
    li, lv, ln = AbstractLoc("li"), AbstractLoc("lv"), AbstractLoc("ln")
    entry = LocCtx(
        (
            (ln, parse_type("int[n]")),
            (li, parse_type("int[0]")),
            (lv, parse_type("Vec<{v. int[v] | true}>[0]")),
        )
    )
    site = LocCtx(
        (
            (ln, parse_type("int[n]")),
            (li, parse_type("int[j + 1]")),
            (lv, parse_type("Vec<{v. int[v] | true}>[j + 1]")),
        )
    )
    return entry, site


def test_infer_rec_signature_loop_template():
    ctx = RefCtx().bind("n", Sort.INT)
    entry, site = _loop_contexts()
    sig = infer_rec_signature(ctx, KVarSupply(), NameSupply(), entry, [site], 1, None)
    # two fresh variables related by one unknown over them plus the scope
    assert [s for _, s in sig.refparams] == [Sort.INT, Sort.INT]
    assert isinstance(sig.requires, KApp)
    assert [s for _, s in sig.requires.kvar.params] == [Sort.INT, Sort.INT, Sort.INT]
    # the unmodified location keeps its index, the others generalize
    assert sig.in_locs.lookup(AbstractLoc("ln")) == parse_type("int[n]")
    b, c = (name for name, _ in sig.refparams)
    assert sig.in_locs.lookup(AbstractLoc("li")) == Indexed(IntBase(), Var(b))
    vec_t = sig.in_locs.lookup(AbstractLoc("lv"))
    assert isinstance(vec_t, Indexed) and vec_t.idx == Var(c)
    assert sig.requires.args[:2] == (Var(b), Var(c))


def test_infer_rec_signature_identical_contexts_no_fresh_vars():
    ctx = RefCtx().bind("n", Sort.INT)
    entry, _ = _loop_contexts()
    sig = infer_rec_signature(ctx, KVarSupply(), NameSupply(), entry, [entry], 1, None)
    assert sig.refparams == ()
    assert sig.in_locs == entry


def test_infer_rec_signature_shape_mismatch():
    ctx = RefCtx().bind("n", Sort.INT)
    entry, site = _loop_contexts()
    bad = site.update(AbstractLoc("li"), parse_type("bool[true]"))
    with pytest.raises(ShapeMismatch):
        infer_rec_signature(ctx, KVarSupply(), NameSupply(), entry, [bad], 1, None)


# -- fixpoint solving --------------------------------------------------------------


def test_solve_ref_join_solution(oracle):
    report = check_program(
        parse_program(open("corpus/accept/ref_join.lr").read()), oracle=oracle
    )
    unit = report.unit("ref_join")
    assert unit.status == "verified"
    sol = unit.solution
    assert len(sol.assignment) == 3
    from lrcheck.syntax import Cmp

    for name, params in sol.params.items():
        nu = Var(params[0][0])
        want = Cmp(">=", nu, IntConst(0))
        pred = sol.assignment[name]
        # each unknown solves exactly to nu >= 0 (up to logical equivalence)
        assert oracle.valid(Query(params, (pred,), want)).is_valid
        assert oracle.valid(Query(params, (want,), pred)).is_valid


def test_solve_make_vec_solution(oracle):
    report = check_program(
        parse_program(open("corpus/accept/make_vec.lr").read()), oracle=oracle
    )
    unit = report.unit("make_vec")
    assert unit.status == "verified"
    assert len(unit.clauses) == 3
    sol = unit.solution
    assert len(sol.assignment) == 2
    for name, params in sol.params.items():
        nu = Var(params[0][0])
        from lrcheck.syntax import Cmp

        assert oracle.valid(
            Query(params, (sol.assignment[name],), Cmp(">", nu, IntConst(0)))
        ).is_valid


def test_solve_init_zeros_invariant(oracle):
    report = check_program(
        parse_program(open("corpus/accept/init_zeros.lr").read()), oracle=oracle
    )
    unit = report.unit("init_zeros")
    assert unit.status == "verified"
    sol = unit.solution
    # the loop-invariant unknown relates its two fresh parameters by equality
    joins = [
        (name, params)
        for name, params in sol.params.items()
        if len(params) == 3 and all(s == Sort.INT for _, s in params)
    ]
    assert joins
    found = False
    from lrcheck.syntax import Eq

    for name, params in joins:
        b, c = Var(params[0][0]), Var(params[1][0])
        if oracle.valid(Query(params, (sol.assignment[name],), Eq(b, c))).is_valid:
            found = True
    assert found


def test_solve_monotone_descent(oracle):
    # the final assignment is a subset of the initial instantiations
    report = check_program(
        parse_program(open("corpus/accept/ref_join.lr").read()), oracle=oracle
    )
    unit = report.unit("ref_join")
    from lrcheck.logic import conjuncts

    for kvar in kvars_of(unit.constraint):
        initial = set(reference_instantiations(kvar, default_qualifiers()))
        final = set(conjuncts(unit.solution.assignment[kvar.name]))
        final.discard(BoolConst(True))
        assert final <= initial


def test_solve_unsat_reports_minimal_clause(oracle):
    k = KVarDecl("k", (("v", Sort.INT),))
    v = Var("v")
    c = Conj(
        (
            ForAll((("v", Sort.INT),), (R("v = 0 - 1"),), Head(KApp(k, (v,)), PROV)),
            ForAll((("v", Sort.INT),), (KApp(k, (v,)),), Head(R("v >= 0"), PROV)),
        )
    )
    out = solve(c, default_qualifiers(), oracle)
    assert out.status == "unsat"
    assert out.failed_clause is not None
    assert out.failed_clause.head == R("v >= 0")


def test_solve_maximality_by_deletion_replay(oracle):
    """Every qualifier the fixpoint deleted breaks some clause when retained
    alongside the final assignment (the deletions were necessary), and the
    final assignment validates every clause (they were sufficient)."""
    k = KVarDecl("k", (("v", Sort.INT), ("m", Sort.INT)))
    v, m = Var("v"), Var("m")
    binders = (("v", Sort.INT), ("m", Sort.INT))
    hyp1 = (R("m >= 1"), R("v = m"))
    constraint = Conj(
        (
            ForAll(binders, (conj(list(hyp1)),), Head(KApp(k, (v, m)), PROV)),
            ForAll(binders, (KApp(k, (v, m)),), Head(R("v >= 1"), PROV)),
        )
    )
    out = solve(constraint, default_qualifiers(), oracle)
    assert out.status == "sat"
    from lrcheck.logic import conjuncts

    kept = [q for q in conjuncts(out.solution.assignment["k"]) if q != BoolConst(True)]
    initial = reference_instantiations(k, default_qualifiers())
    deleted = [q for q in initial if q not in kept]

    def clauses_valid(assignment):
        pred = conj(assignment)
        defining = oracle.valid(Query(binders, hyp1, pred))
        using = oracle.valid(Query(binders, (pred,), R("v >= 1")))
        return defining.is_valid and using.is_valid

    assert clauses_valid(kept)
    for q in deleted:
        assert not clauses_valid(kept + [q]), q
    # brute-force cross-check on the defining clause alone: the kept set is
    # exactly the individually-preservable qualifiers
    for q in initial:
        individually_ok = clauses_valid(kept) and oracle.valid(
            Query(binders, hyp1, q)
        ).is_valid and oracle.valid(
            Query(binders, (conj(kept),), R("v >= 1"))
        ).is_valid and oracle.valid(
            Query(binders, (conj(kept + [q]),), R("v >= 1"))
        ).is_valid and oracle.valid(Query(binders, hyp1, conj(kept + [q]))).is_valid
        assert individually_ok == (q in kept), q


def test_two_phase_queries_from_supplementary(oracle):
    """The loop invariant solves from the entry and preservation queries."""
    k = KVarDecl("k", (("b", Sort.INT), ("c", Sort.INT), ("n", Sort.INT)))
    b, c, n = Var("b"), Var("c"), Var("n")
    apply_at = lambda eb, ec: KApp(k, (eb, ec, n))
    from lrcheck.syntax import BinArith

    inc = lambda e: BinArith("+", e, IntConst(1))
    constraint = Conj(
        (
            # entry: n >= 0 |- k(0, 0, n)
            ForAll(
                (("n", Sort.INT),),
                (R("n >= 0"),),
                Head(apply_at(IntConst(0), IntConst(0)), PROV),
            ),
            # preservation: k(b, c, n), b < n |- k(b+1, c+1, n)
            ForAll(
                (("n", Sort.INT), ("b", Sort.INT), ("c", Sort.INT)),
                (R("n >= 0"), apply_at(b, c), R("b < n")),
                Head(apply_at(inc(b), inc(c)), PROV),
            ),
            # exit: k(b, c, n), not (b < n) |- c = n
            ForAll(
                (("n", Sort.INT), ("b", Sort.INT), ("c", Sort.INT)),
                (R("n >= 0"), apply_at(b, c), R("!(b < n)")),
                Head(R("c = n"), PROV),
            ),
        )
    )
    out = solve(constraint, default_qualifiers(), oracle)
    assert out.status == "sat"
    pred = out.solution.assignment["k"]
    assert oracle.valid(
        Query(k.params, (pred,), R("b = c"))
    ).is_valid


def test_solve_iteration_bound(oracle):
    """Sweeps are bounded by clauses x (deletions + 1): descent is monotone."""

    for path in [
        "corpus/accept/ref_join.lr",
        "corpus/accept/make_vec.lr",
        "corpus/accept/init_zeros.lr",
    ]:
        report = check_program(parse_program(open(path).read()), oracle=Oracle())
        for unit in report.units:
            assert unit.status == "verified", path
        # re-solve directly to observe the counters
        unit = report.units[0]
        out = solve(unit.constraint, default_qualifiers(), Oracle())
        assert out.ok
        kvar_clause_count = sum(1 for c in unit.clauses if c.is_kvar_head())
        budget = sum(
            len(instantiations(k, default_qualifiers()))
            for k in kvars_of(unit.constraint)
        )
        assert out.sweeps <= kvar_clause_count * (out.deletions + 1) + kvar_clause_count


X = Var("x")
X_BINDERS = (("x", Sort.INT),)


def _defines(kvar, *hyps):
    """The clause hyps |- kvar(x), over the one integer binder x."""
    return ForAll(X_BINDERS, hyps, Head(KApp(kvar, (X,)), PROV))


def _chain(n, downstream_first=True):
    """A chain of n one-parameter kvars: k0(x) under x = 0, and each k_i(x)
    under k_{i-1}(x)."""
    ks = [KVarDecl(f"k{i}", X_BINDERS) for i in range(n)]
    parts = [_defines(ks[0], R("x = 0"))]
    parts += [_defines(ks[i], KApp(ks[i - 1], (X,))) for i in range(1, n)]
    return Conj(tuple(reversed(parts) if downstream_first else parts))


def test_chain_sweeps_each_clause_once(oracle):
    """Upstream first, each clause of an acyclic chain is swept once, in
    whatever order the clauses are listed."""
    for downstream_first in (True, False):
        out = solve(_chain(50, downstream_first), default_qualifiers(), oracle)
        assert out.status == "sat"
        assert out.sweeps == 50
        assert out.solution.assignment["k49"] == out.solution.assignment["k0"]


@pytest.mark.parametrize("downstream_first", [True, False])
def test_long_chain_solves_without_recursion(downstream_first):
    """The components are found with an explicit stack: listed upstream
    first, the search descends the whole chain from k0."""
    out = solve(_chain(2000, downstream_first), default_qualifiers(), Oracle())
    assert out.status == "sat"
    assert out.sweeps == 2000


def test_cycle_feeding_a_kvar_sweeps_its_clause_once(oracle):
    """A two-kvar cycle a <-> b feeds c: c's clause, listed first, is swept
    once, after the cycle has settled.  The cycle's clause under b comes
    first, so the cycle sweeps it again after b shrinks."""
    a, b, c = (KVarDecl(name, X_BINDERS) for name in "abc")
    cycle = (
        _defines(a, KApp(b, (X,))),
        _defines(a, R("x = 0")),
        _defines(b, KApp(a, (X,))),
    )
    quals = default_qualifiers()
    alone = solve(Conj(cycle), quals, oracle)
    fed = solve(Conj((_defines(c, KApp(a, (X,))),) + cycle), quals, oracle)
    assert alone.status == fed.status == "sat"
    assert alone.sweeps > len(cycle)
    assert fed.sweeps == alone.sweeps + 1
    for name in "ab":
        assert fed.solution.assignment[name] == alone.solution.assignment[name]
    assert fed.solution.assignment["c"] == fed.solution.assignment["a"]


def _solved_units(programs):
    """Each unit of each program that reached the solver, with its
    constraint solved afresh."""
    quals = default_qualifiers()
    oracle = Oracle()
    for program in programs:
        for unit in check_program(program, run_solver=False).units:
            if unit.status != "error":
                yield unit, solve(unit.constraint, quals, oracle)


def _corpus_and_seeds(seeds):
    for path in sorted(glob.glob("corpus/*/*.lr")):
        yield parse_program(open(path).read())
    for seed in seeds:
        yield generate_program(seed, 10)


def test_sat_solution_validates_every_clause():
    """A fixed point of the weakening satisfies every clause, so `solve`
    does not recheck the kvar-headed ones: under the solution, each clause
    of each sat unit is valid through the term-level entry."""
    oracle = Oracle()
    checked = 0
    for unit, out in _solved_units(_corpus_and_seeds(range(100))):
        if not out.ok:
            continue
        for clause in unit.clauses:
            hyps = tuple(apply_solution_expr(h, out.solution) for h in clause.hyps)
            goal = apply_solution_expr(clause.head, out.solution)
            verdict = oracle.valid(Query(clause.binders, hyps, goal))
            assert verdict.is_valid, (unit.name, clause, verdict)
            checked += clause.is_kvar_head()
    assert checked >= 1000


def test_the_point_filter_changes_no_solve(monkeypatch):
    """Every sweep drops the head kvar's candidates false at its sample
    points before asking them, on a kvar's later sweeps too.  With the full
    candidate list restored, so that the oracle decides every candidate,
    every solve over the corpus, generator seeds 0-199 and chains of 5 to 8
    borrows ends the same: status, deletions, sweeps, solution, failed
    clause and reason."""
    programs = list(_corpus_and_seeds(range(200)))
    programs += [parse_program(borrow_chain(n)) for n in range(5, 9)]

    def outcomes():
        return [
            (
                out.status,
                out.deletions,
                out.sweeps,
                out.solution.dump(),
                out.failed_clause,
                out.reason,
            )
            for _, out in _solved_units(programs)
        ]

    sample = _Candidates.sample
    dropped = Counter()

    def counted(self, app, points):
        before = len(self.kept[app.kvar])
        literals = sample(self, app, points)
        sampled = vars(self).setdefault("sampled", set())
        later = app.kvar in sampled
        sampled.add(app.kvar)
        dropped["later" if later else "first"] += before - len(self.kept[app.kvar])
        return literals

    monkeypatch.setattr(_Candidates, "sample", counted)
    filtered = outcomes()

    def unfiltered(self, app, points):
        return self.literals(app.kvar)

    monkeypatch.setattr(_Candidates, "sample", unfiltered)
    assert outcomes() == filtered
    # measured: 16,548 dropped on first sweeps and 13,182 on later ones
    assert len(filtered) >= 400, len(filtered)
    assert dropped["first"] >= 10000 and dropped["later"] >= 10000, dropped


class UndecidedOracle(Oracle):
    """Answers every term-level query unknown."""

    def valid(self, query, want_model=True):
        return Verdict("unknown", reason="undecided")


def test_unknown_concrete_clause_reports_the_fixpoint_counts():
    """A concrete clause the oracle cannot decide ends the solve as
    unknown, with the deletions and sweeps of the fixpoint before it."""
    program = parse_program(open("corpus/mutants/init_zeros_off_by_one.lr").read())
    unit = check_program(program, run_solver=False).units[0]
    quals = default_qualifiers()
    builtin = solve(unit.constraint, quals, Oracle())
    out = solve(unit.constraint, quals, UndecidedOracle())
    # the rows do not prove the failing concrete clause, so it reaches `valid`
    assert builtin.status == "unsat"
    assert (builtin.deletions, builtin.sweeps) == (286, 19)
    assert out.status == "unknown" and out.reason == "undecided"
    assert out.failed_clause == builtin.failed_clause
    assert not out.failed_clause.is_kvar_head()
    assert (out.deletions, out.sweeps) == (builtin.deletions, builtin.sweeps)


def configured(*texts):
    """The defaults and `texts`, built as a config file's qualifiers are."""
    return default_qualifiers() + [
        parse_qualifier(f"config{i}", Sort.INT, text) for i, text in enumerate(texts)
    ]


# the defaults, and configuration lists whose instantiations repeat a term:
# a repeated qualifier, `v = m` beside `m = v` and the default `eq`, and
# `v >= 0` beside the default `nonneg`
QUALIFIER_LISTS = [
    default_qualifiers(),
    configured("v <= m + 1"),
    configured("v = m", "m = v"),
    configured("v <= m + 1", "v >= 0", "v <= m + 1"),
]
P_INTS = ["x0", "x1", "x2"]
P_BOOLS = ["b0", "b1"]
P_BINDERS = tuple((n, Sort.INT) for n in P_INTS) + tuple((n, Sort.BOOL) for n in P_BOOLS)


def _fixpoint_case(rng):
    """One kvar of 1-6 int and bool parameters under an entry clause whose
    hypotheses hold at a random point, one or two step clauses and an exit
    clause."""
    params = tuple(
        (f"p{i}", Sort.INT if rng.random() < 0.7 else Sort.BOOL)
        for i in range(rng.randrange(1, 7))
    )
    kvar = KVarDecl("k", params)

    def app():
        return KApp(kvar, tuple(
            int_expr(rng, P_INTS, 1) if sort is Sort.INT
            else Var(rng.choice(P_BOOLS)) if rng.random() < 0.5
            else bool_expr(rng, P_INTS, P_BOOLS, 1)
            for _, sort in params
        ))

    env = {n: rng.randrange(-2, 3) for n in P_INTS}
    env.update({n: rng.random() < 0.5 for n in P_BOOLS})
    facts = [bool_expr(rng, P_INTS, P_BOOLS, 1) for _ in range(rng.randrange(3))]
    facts = [f if eval_closed(f, env) else Not(f) for f in facts]
    parts = [ForAll(P_BINDERS, tuple(facts), Head(app(), PROV))]
    for _ in range(rng.randrange(1, 3)):
        guard = bool_expr(rng, P_INTS, P_BOOLS, 1)
        parts.append(ForAll(P_BINDERS, (app(), guard), Head(app(), PROV)))
    exit_head = bool_expr(rng, P_INTS, P_BOOLS, 1)
    parts.append(ForAll(P_BINDERS, (app(),), Head(exit_head, PROV)))
    return kvar, Conj(tuple(parts))


@pytest.mark.parametrize("which", range(len(QUALIFIER_LISTS)))
def test_candidates_match_the_term_reference(which):
    """Candidates as qualifier triples, decided once per distinct literal
    and refuted at known points first, keep the terms the term-level
    fixpoint keeps, in its order, after as many deletions; and they
    instantiate to its candidate terms, repeats dropped."""
    quals = QUALIFIER_LISTS[which]
    rng = random.Random(23 + which)
    repeats = deleted = kept = 0
    for _ in range(40):
        kvar, constraint = _fixpoint_case(rng)
        terms = reference_instantiations(kvar, quals)
        assert [instance(c) for c in instantiations(kvar, quals)] == terms
        sorts = [s for _, s in kvar.params]
        repeats += sum(
            1 if not q.uses_meta else sorts.count(s) - 1
            for s in sorts
            for q in quals
            if q.sort == s
        ) - len(terms)
        out = solve(constraint, quals, Oracle())
        survivors, deletions = reference_fixpoint(constraint, quals)
        assert out.solution.assignment["k"] == conj(survivors["k"]), kvar
        assert out.deletions == deletions, kvar
        deleted += deletions
        kept += len(survivors["k"])
    assert deleted >= 1000 and kept >= 50, (deleted, kept)
    assert (repeats > 0) == (which >= 2), repeats
