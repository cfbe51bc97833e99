"""Shape inference and the liquid fixpoint solver, pinned against the
worked join-point, vector, and loop-invariant solutions."""

import itertools
import random

import pytest

from lrcheck.constraints import (
    Conj,
    ForAll,
    Head,
    Implies,
    Provenance,
    Solution,
    clauses,
    default_qualifiers,
    instantiations,
    normalize,
)
from lrcheck.errors import ShapeMismatch
from lrcheck.infer import (
    KVarSupply,
    fresh_kvar_type,
    infer_rec_signature,
    solve,
)
from lrcheck.logic import RefCtx, SortError, conj, sortcheck, subst_parallel
from lrcheck.oracle import Oracle, Query
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
    Sort,
    Var,
)
from lrcheck.typeck import check_program

PROV = Provenance("test")


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


def test_fresh_kvar_type_includes_scope():
    ctx = RefCtx().bind("a", Sort.BOOL)
    t = fresh_kvar_type(KVarSupply(), NameSupply(), ctx, IntBase())
    assert isinstance(t, Exists) and isinstance(t.pred, KApp)
    assert [s for _, s in t.pred.kvar.params] == [Sort.INT, Sort.BOOL]
    assert t.pred.args[1] == Var("a")


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
    template = infer_rec_signature(
        ctx, KVarSupply(), NameSupply(), entry, [site], 1, None
    )
    # two fresh variables related by one unknown over them plus the scope
    assert [s for _, s in template.fresh_params] == [Sort.INT, Sort.INT]
    assert [s for _, s in template.kvar.params] == [Sort.INT, Sort.INT, Sort.INT]
    sig = template.sig
    # the unmodified location keeps its index, the others generalize
    assert sig.in_locs.lookup(AbstractLoc("ln")) == parse_type("int[n]")
    b, c = (name for name, _ in template.fresh_params)
    assert sig.in_locs.lookup(AbstractLoc("li")) == Indexed(IntBase(), Var(b))
    vec_t = sig.in_locs.lookup(AbstractLoc("lv"))
    assert isinstance(vec_t, Indexed) and vec_t.idx == Var(c)
    assert isinstance(sig.requires, KApp)
    assert sig.requires.args[:2] == (Var(b), Var(c))


def test_infer_rec_signature_identical_contexts_no_fresh_vars():
    ctx = RefCtx().bind("n", Sort.INT)
    entry, _ = _loop_contexts()
    template = infer_rec_signature(
        ctx, KVarSupply(), NameSupply(), entry, [entry], 1, None
    )
    assert template.fresh_params == ()
    assert template.sig.in_locs == entry


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
    from lrcheck.constraints import kvars_of
    from lrcheck.logic import conjuncts

    for kvar in kvars_of(unit.constraint):
        initial = set(instantiations(kvar, default_qualifiers()))
        final = set(conjuncts(unit.solution.assignment[kvar.name]))
        final.discard(BoolConst(True))
        assert final <= initial


def test_solve_unsat_reports_minimal_clause(oracle):
    k = KVarDecl("k", (("v", Sort.INT),))
    v = Var("v")
    c = Conj(
        (
            ForAll("v", Sort.INT, R("v = 0 - 1"), Head(KApp(k, (v,)), PROV)),
            ForAll("v", Sort.INT, KApp(k, (v,)), Head(R("v >= 0"), PROV)),
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
            ForAll(
                "v",
                Sort.INT,
                BoolConst(True),
                ForAll("m", Sort.INT, conj(list(hyp1)), Head(KApp(k, (v, m)), PROV)),
            ),
            ForAll(
                "v",
                Sort.INT,
                BoolConst(True),
                ForAll("m", Sort.INT, KApp(k, (v, m)), Head(R("v >= 1"), PROV)),
            ),
        )
    )
    out = solve(constraint, default_qualifiers(), oracle)
    assert out.status == "sat"
    from lrcheck.logic import conjuncts

    kept = [q for q in conjuncts(out.solution.assignment["k"]) if q != BoolConst(True)]
    deleted = [q for q in instantiations(k, default_qualifiers()) if q not in kept]

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
    for q in instantiations(k, default_qualifiers()):
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
                "n",
                Sort.INT,
                R("n >= 0"),
                Head(apply_at(IntConst(0), IntConst(0)), PROV),
            ),
            # preservation: k(b, c, n), b < n |- k(b+1, c+1, n)
            ForAll(
                "n",
                Sort.INT,
                R("n >= 0"),
                ForAll(
                    "b",
                    Sort.INT,
                    BoolConst(True),
                    ForAll(
                        "c",
                        Sort.INT,
                        conj([apply_at(b, c), R("b < n")]),
                        Head(apply_at(inc(b), inc(c)), PROV),
                    ),
                ),
            ),
            # exit: k(b, c, n), not (b < n) |- c = n
            ForAll(
                "n",
                Sort.INT,
                R("n >= 0"),
                ForAll(
                    "b",
                    Sort.INT,
                    BoolConst(True),
                    ForAll(
                        "c",
                        Sort.INT,
                        conj([apply_at(b, c), R("!(b < n)")]),
                        Head(R("c = n"), PROV),
                    ),
                ),
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
    from lrcheck.constraints import kvars_of

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
