"""The fixpoint's row-level oracle entry: a clause linearized once and
spliced under the kept candidates must get the verdicts the term-level
entries give the expanded clause, whether its head is a kvar or a concrete
formula, and no Valid that brute force refutes."""

import dataclasses
import glob
import itertools
import random
from collections import Counter
from functools import partial

import pytest

from gen import bool_expr, int_expr
from lrcheck import oracle as oracle_module
from lrcheck.constraints import (
    Clause,
    Provenance,
    Solution,
    apply_solution_expr,
    default_qualifiers,
    instance,
    instantiations,
    parse_qualifier,
)
from lrcheck.infer import _App, _Candidates, _candidate_literals, _ClauseRows, _literal
from lrcheck.logic import conj, subst_parallel
from lrcheck.oracle import INVALID, VALID, Oracle, Query, dnf, eval_closed
from lrcheck.parser import parse_program
from lrcheck.syntax import (
    BinArith,
    BinBool,
    BoolConst,
    Cmp,
    Eq,
    IntConst,
    KApp,
    KVarDecl,
    Not,
    Sort,
    Var,
)
from lrcheck.typeck import check_program

INTS = ["x0", "x1", "x2"]
BOOLS = ["b0", "b1"]
BINDERS = tuple((n, Sort.INT) for n in INTS) + tuple((n, Sort.BOOL) for n in BOOLS)
K_HYP = KVarDecl("k0", (("v", Sort.INT), ("a", Sort.INT), ("p", Sort.BOOL)))
K_HEAD = KVarDecl("k1", (("w", Sort.INT), ("c", Sort.INT), ("q", Sort.BOOL)))
# the defaults plus two qualifiers that are not one linear literal, as a
# configuration file may add: a disjunction and a nonlinear product
QUALS = default_qualifiers() + [
    parse_qualifier("lt-or-zero", Sort.INT, "v < m || v = 0"),
    parse_qualifier("same-sign", Sort.INT, "v * m >= 0"),
]


def _int_arg(rng, products=True):
    if products and rng.random() < 0.25:
        # a nonlinear product, which the oracle treats as opaque
        return BinArith("*", Var(rng.choice(INTS)), Var(rng.choice(INTS)))
    return int_expr(rng, INTS, 2)


def _bool_arg(rng):
    if rng.random() < 0.4:
        return Var(rng.choice(BOOLS))
    # a formula bound to a boolean parameter
    return bool_expr(rng, INTS, BOOLS, 2)


def _app(rng, kvar, products=True):
    return KApp(
        kvar, (_int_arg(rng, products), _int_arg(rng, products), _bool_arg(rng))
    )


def _case(rng, products=True):
    """A clause with concrete and kvar hypotheses that all hold at one
    random point, sometimes recursive, whose head often repeats the
    arguments of a hypothesis; each kvar keeps a random subset of its
    candidates, sometimes none.  The hypothesis kvar keeps only candidates
    true at the point.  With `products` false, no argument is a
    product."""
    env = {n: rng.randrange(-2, 3) for n in INTS}
    env.update({n: rng.random() < 0.5 for n in BOOLS})
    hyps = []
    for _ in range(rng.randrange(3)):
        h = bool_expr(rng, INTS, BOOLS, 2)
        hyps.append(h if eval_closed(h, env) else Not(h))
    apps = [_app(rng, K_HYP, products) for _ in range(rng.randrange(1, 3))]
    for app in apps:
        hyps.insert(rng.randrange(len(hyps) + 1), app)
    head_kvar = K_HYP if rng.random() < 0.3 else K_HEAD
    if rng.random() < 0.6:
        head = KApp(head_kvar, rng.choice(apps).args)
    else:
        head = _app(rng, head_kvar, products)
    clause = Clause(0, BINDERS, tuple(hyps), head, Provenance("test"))
    cands = _Candidates([K_HYP, K_HEAD], QUALS)
    true_here = [
        c
        for c in cands.kept["k0"]
        if all(eval_closed(_at(instance(c), K_HYP, app.args), env) for app in apps)
    ]
    for name, kept in (("k0", true_here), ("k1", cands.kept["k1"])):
        size = 0
        if kept and rng.random() < 0.85:
            size = rng.randrange(1, min(len(kept), 8) + 1)
        cands.kept[name] = rng.sample(kept, size)
    return clause, cands


def _at(cand, kvar, args):
    return subst_parallel(cand, {p: a for (p, _), a in zip(kvar.params, args)})


def _term_query(clause, cands):
    """The clause expanded as the term-level solver did: hypotheses under
    the conjunction of candidates, and each head candidate as a goal."""
    solution = Solution()
    for k in (K_HYP, K_HEAD):
        solution.assign(k, conj(cands.terms(k.name)))
    hyps = tuple(apply_solution_expr(h, solution) for h in clause.hyps)
    head = clause.head
    goals = [_at(c, head.kvar, head.args) for c in cands.terms(head.kvar.name)]
    return hyps, goals


def _per_candidate(cands, name, verdicts):
    """The verdicts of a kvar's distinct literals, one per candidate."""
    index = {lit: i for i, lit in enumerate(cands.literals(name))}
    lits = _candidate_literals(cands.kept[name], cands.params[name], {})
    return [verdicts[index[lit]] for lit in lits]


def _concrete_head(rng, clause, cands):
    """A formula over the binders: often one kept candidate of the
    hypothesis kvar, or their conjunction, at one of its applications,
    which the hypotheses imply; else a random formula."""
    kept = cands.terms("k0")
    roll = rng.random()
    if kept and roll < 0.7:
        app = rng.choice([h for h in clause.hyps if isinstance(h, KApp)])
        chosen = kept if roll < 0.3 else [rng.choice(kept)]
        return conj([_at(c, K_HYP, app.args) for c in chosen])
    return bool_expr(rng, INTS, BOOLS, 2)


NO_MODEL = "satisfiable relaxation, no integer model found"
TOO_LARGE = "formula too large for built-in oracle"


def _agree(by_rows, by_terms):
    """The row verdict is the term verdict before the term entry searches
    for a counter-model, which turns Invalid into Unknown when none is
    found."""
    if by_rows.is_invalid:
        return by_terms.is_invalid or by_terms.reason == NO_MODEL
    return (by_rows.status, by_rows.reason) == (by_terms.status, by_terms.reason)


def _models(hyps):
    """Every assignment of the binders over a small box that satisfies the
    hypotheses."""
    out = []
    for ints in itertools.product(range(-2, 3), repeat=len(INTS)):
        for bools in itertools.product((False, True), repeat=len(BOOLS)):
            env = dict(zip(INTS, ints))
            env.update(zip(BOOLS, bools))
            if all(eval_closed(h, env) for h in hyps):
                out.append(env)
    return out


@pytest.mark.parametrize("max_cubes", [oracle_module.MAX_CUBES, 3])
def test_row_entry_matches_term_entry_and_brute_force(monkeypatch, max_cubes):
    # a small cube limit sends many hypotheses and goals down the unknown path
    monkeypatch.setattr(oracle_module, "MAX_CUBES", max_cubes)
    rng = random.Random(61)
    oracle = Oracle()
    seen = Counter()
    disagreements = []
    for _ in range(120):
        clause, cands = _case(rng)
        head = _concrete_head(rng, clause, cands)
        rows = _ClauseRows(clause)
        concrete = _ClauseRows(dataclasses.replace(clause, head=head))
        name = rows.head.kvar
        lits = cands.literals(name)
        queries = oracle.queries
        by_rows = oracle.valid_rows(rows.hyp_cubes(cands), lits, rows.head.negated)
        # one query per distinct literal
        assert oracle.queries == queries + len(lits) <= queries + len(cands.kept[name])
        by_rows = _per_candidate(cands, name, by_rows)
        by_rows += oracle.valid_rows(concrete.hyp_cubes(cands), [head], concrete.negated)
        hyps, goals = _term_query(clause, cands)
        by_terms = oracle.valid_many(BINDERS, hyps, goals)
        by_terms.append(oracle.valid(Query(BINDERS, hyps, head)))
        if not all(map(_agree, by_rows, by_terms)):
            disagreements.append((clause, head, "differs from terms", by_rows, by_terms))
        models = _models(hyps)
        for goal, verdict in zip(goals + [head], by_rows):
            seen[verdict.reason or verdict.status] += 1
            if verdict.is_valid and any(not eval_closed(goal, env) for env in models):
                disagreements.append((clause, "false valid", goal))
        seen["concrete " + by_rows[-1].status] += 1
        seen["empty"] += not lits
        seen["shared literals"] += len(cands.kept[name]) - len(lits)
        seen["term literals"] += sum(lit[0] == "term" for lit in lits)
    assert not disagreements, disagreements[:3]
    assert seen["valid"] >= 40 and seen["invalid"] >= 40, seen
    assert seen["concrete valid"] >= 20 and seen["concrete invalid"] >= 20, seen
    assert seen["empty"] >= 5 and seen["term literals"] >= 20, seen
    assert seen["shared literals"] >= 20, seen
    if max_cubes == 3:
        assert seen[TOO_LARGE] >= 10, seen
        assert seen["goal too large"] >= 5, seen


def test_kvar_hypothesis_is_one_conjunction_under_the_cube_limit(monkeypatch):
    """A kvar hypothesis's candidates are conjoined among themselves before
    the other hypotheses, as the expanded term is: here their conjunction
    has no cube, so the product never exceeds the limit and the hypotheses
    are simply unsatisfiable."""
    monkeypatch.setattr(oracle_module, "MAX_CUBES", 3)
    either = BinBool("or", Var("b0"), Var("b1"))
    true_or_b0 = BinBool("or", BoolConst(True), Var("b0"))
    app = KApp(K_HYP, (Var("x0"), Var("x1"), true_or_b0))
    head = KApp(K_HEAD, app.args)
    clause = Clause(0, BINDERS, (either, app), head, Provenance("test"))
    cands = _Candidates([K_HYP, K_HEAD], QUALS)
    by_name = {q.name: q for q in QUALS}
    # p and not p: two cubes, then none
    cands.kept["k0"] = [(by_name["holds"], "p", None), (by_name["fails"], "p", None)]
    cands.kept["k1"] = [(by_name["nonneg"], "w", None)]
    rows = _ClauseRows(clause)
    by_rows = Oracle().valid_rows(
        rows.hyp_cubes(cands), cands.literals("k1"), rows.head.negated
    )
    hyps, goals = _term_query(clause, cands)
    by_terms = Oracle().valid_many(BINDERS, hyps, goals[:1])
    assert by_rows == by_terms == [VALID]


def test_accepted_corpus_needs_no_term_query(monkeypatch):
    """With the built-in oracle, the rows prove every concrete clause of an
    accepted program: the term-level entry is only asked about a clause the
    rows do not prove."""

    def refuse(self, query, want_model=True):
        raise AssertionError(f"term-level query {query}")

    monkeypatch.setattr(Oracle, "valid", refuse)
    paths = sorted(glob.glob("corpus/accept/*.lr"))
    assert paths
    for path in paths:
        report = check_program(parse_program(open(path).read()), oracle=Oracle())
        assert report.ok, path


def _canonical(cubes):
    """Cubes as a set of sets, each row as its coefficient items plus its
    constant, so that rows and cubes built in a different order compare
    equal: an equality's literal may have the opposite sign."""
    return frozenset(
        frozenset(
            ("le", frozenset(lit[1][0].items()), lit[1][1]) if lit[0] == "le" else lit
            for lit in cube
        )
        for cube in cubes
    )


def test_spliced_literal_cubes_are_the_substituted_candidate_cubes():
    """A candidate's literal, built from its qualifier's template, is the
    literal of its term, and spliced at an application it has exactly the
    cubes the oracle gives the substituted term, in both polarities: row
    literals, the equalities among them, and term literals alike."""
    ints = (("v", Sort.INT), ("a", Sort.INT), ("c", Sort.INT))
    kvar = KVarDecl("k2", ints + (("p", Sort.BOOL), ("q", Sort.BOOL)))
    params = dict(kvar.params)
    cands = [instance(c) for c in instantiations(kvar, QUALS)]
    literals = list(_candidate_literals(instantiations(kvar, QUALS), params, {}))
    assert literals == [_literal(c, params) for c in cands]
    kinds = Counter(lit[0] for lit in literals)
    assert kinds["le"] and kinds["eq"] and kinds["term"], kinds
    sorts = dict(BINDERS)
    rng = random.Random(19)
    products = 0
    for _ in range(60):
        args = tuple(
            _int_arg(rng) if sort is Sort.INT else _bool_arg(rng)
            for _, sort in kvar.params
        )
        products += any(isinstance(a, BinArith) and a.op == "*" for a in args)
        prods = {}
        app = _App(KApp(kvar, args), sorts, prods)
        for cand, lit in zip(cands, literals):
            for positive in (True, False):
                spliced = app.cubes(lit, positive)
                expanded = dnf(subst_parallel(cand, app.args), positive, sorts, prods)
                assert _canonical(spliced) == _canonical(expanded), (cand, args)
    assert products >= 10


@pytest.mark.parametrize("strict", [False, True])
def test_a_comparison_literal_is_its_own_canonical_key(strict):
    sorts = {"a": Sort.INT, "b": Sort.INT}
    a, b = Var("a"), Var("b")
    le, ge = ("<", ">") if strict else ("<=", ">=")
    key = _literal(Cmp(le, a, b), sorts)
    assert key[0] == "le"
    assert {key, _literal(Cmp(ge, b, a), sorts)} == {key}
    assert key != _literal(Cmp(ge, a, b), sorts)


def test_an_equality_literal_is_its_own_canonical_key_up_to_sign():
    sorts = {"a": Sort.INT, "b": Sort.INT}
    a, b, one = Var("a"), Var("b"), IntConst(1)
    succ = _literal(Eq(a, BinArith("+", b, one)), sorts)
    assert succ[0] == "eq"
    assert _literal(Eq(b, BinArith("-", a, one)), sorts) == succ
    assert _literal(Eq(b, a), sorts) == _literal(Eq(a, b), sorts)
    assert _literal(Eq(b, BinArith("+", a, one)), sorts) != succ


@pytest.mark.parametrize("max_cubes", [oracle_module.MAX_CUBES, 3])
def test_refuting_at_known_points_keeps_the_verdicts(monkeypatch, max_cubes):
    """On the clauses of `test_row_entry_matches_term_entry_and_brute_force`,
    with the head's literals already built, as on a kvar's later sweeps:
    filtering the head's candidates at the hypothesis cubes' known points
    before deciding the survivors gives each candidate the verdict deciding
    it in full gives, a dropped one Invalid, except Invalid for unknown
    when Fourier-Motzkin would go over its limit; and never Valid where
    brute force finds a model."""
    monkeypatch.setattr(oracle_module, "MAX_CUBES", max_cubes)
    rng = random.Random(61)
    seen = Counter()
    disagreements = []
    for _ in range(120):
        clause, cands = _case(rng)
        _concrete_head(rng, clause, cands)  # the same cases, in the same order
        rows = _ClauseRows(clause)
        head = rows.head
        name = head.kvar
        # the hypotheses and goals before the filter drops any candidate
        hyps, goals = _term_query(clause, cands)
        before = list(cands.kept[name])
        lits = cands.literals(name)
        full = Oracle().valid_rows(rows.hyp_cubes(cands), lits, head.negated)
        full = _per_candidate(cands, name, full)
        filtered = Oracle().valid_rows(
            rows.hyp_cubes(cands), partial(cands.sample, head), head.negated
        )
        after = dict(zip(cands.kept[name], _per_candidate(cands, name, filtered)))
        models = _models(hyps)
        for cand, goal, whole in zip(before, goals, full):
            seen["false at a point"] += cand not in after
            verdict = after.get(cand, INVALID)
            over = whole.reason.startswith("Fourier-Motzkin over")
            if verdict != whole and not (over and verdict.is_invalid):
                disagreements.append((clause, cand, "differs", whole, verdict))
            seen[verdict.reason or verdict.status] += 1
            if verdict.is_valid and any(not eval_closed(goal, env) for env in models):
                disagreements.append((clause, "false valid", goal))
        # the survivors' literals still index their candidates
        cands.keep(name, [v.is_valid for v in filtered])
        if cands.kept[name] != [c for c, v in zip(before, full) if v.is_valid]:
            disagreements.append((clause, "kept", cands.kept[name]))
    assert not disagreements, disagreements[:3]
    assert seen["valid"] >= 40 and seen["invalid"] >= 40, seen
    assert seen["false at a point"] >= 40, seen


@pytest.mark.parametrize("max_cubes", [oracle_module.MAX_CUBES, 3])
def test_first_sweep_filter_drops_only_invalid_candidates(monkeypatch, max_cubes):
    """Random clauses, every other one with no product, whose head's
    candidates, all of them unless the head is the hypothesis kvar, are
    filtered at the hypotheses' sample points, as a kvar's first sweep
    does: every sample point satisfies its cube's rows and,
    with no product, the hypotheses; every dropped candidate is Invalid by
    `Oracle.valid` and, with no product, false at a model of the
    hypotheses; and every survivor keeps the verdict it has when nothing is
    filtered."""
    monkeypatch.setattr(oracle_module, "MAX_CUBES", max_cubes)
    cubes = []  # (rows, points) of each cube reduced with spread points
    fm_unsat = oracle_module._fm_unsat

    def recorded(rows, points, spread=False):
        unsat = fm_unsat(rows, points, spread)
        if spread and not unsat:
            cubes.append((rows, list(points)))
        return unsat

    monkeypatch.setattr(oracle_module, "_fm_unsat", recorded)
    rng = random.Random(67)
    oracle = Oracle()
    seen = Counter()
    for i in range(160):
        clause, cands = _case(rng, products=i % 2 == 0)
        rows = _ClauseRows(clause)
        head = rows.head
        name = head.kvar
        if name == K_HEAD.name:
            # a first sweep filters every instantiation
            cands.kept[name] = instantiations(K_HEAD, QUALS)
        # the hypotheses and verdicts with nothing filtered, from a copy: the
        # head's literals are not built before the filter, unless the head
        # is the hypothesis kvar
        hyps, _ = _term_query(clause, cands)
        before = list(cands.kept[name])
        unfiltered = _Candidates([K_HYP, K_HEAD], QUALS)
        unfiltered.kept = {k: list(kept) for k, kept in cands.kept.items()}
        lits = unfiltered.literals(name)
        full = Oracle().valid_rows(rows.hyp_cubes(unfiltered), lits, head.negated)
        full = dict(zip(before, _per_candidate(unfiltered, name, full)))
        given = []

        def goals(points):
            given.extend(points)
            return cands.sample(head, points)

        cubes.clear()
        hyp_cubes = rows.hyp_cubes(cands)
        first = oracle.valid_rows(hyp_cubes, goals, head.negated)
        survivors = set(cands.kept[name])
        seen["too large"] += sum(v.reason == TOO_LARGE for v in first)
        # one query per survivor's distinct literal, each with its verdict
        assert len(first) == len(cands.literals(name))
        for cand, verdict in zip(cands.kept[name], _per_candidate(cands, name, first)):
            assert verdict.is_valid == full[cand].is_valid, (clause, cand)
        for cube_rows, points in cubes:
            assert all(oracle_module._holds(p, cube_rows) for p in points), cube_rows
            seen["points"] += len(points)
        # a sample point gives a product's opaque name a value of its own
        exact = not rows.prods
        envs = []
        for point in given:
            completions = [
                {**{n: point.get(n, 0) for n in INTS}, **dict(zip(BOOLS, bools))}
                for bools in itertools.product((False, True), repeat=len(BOOLS))
            ]
            models = [e for e in completions if all(eval_closed(h, e) for h in hyps)]
            assert models or not exact, (clause, point)
            envs += models
        envs += _models(hyps)
        for cand in before:
            if cand in survivors:
                continue
            seen["dropped"] += 1
            seen[f"dropped from {name}"] += 1
            assert not full[cand].is_valid, (clause, cand)
            goal = _at(instance(cand), clause.head.kvar, clause.head.args)
            verdict = oracle.valid(Query(BINDERS, hyps, goal))
            assert verdict.is_invalid or verdict.reason == NO_MODEL, (clause, cand)
            if exact:
                seen["exact drops"] += 1
                assert any(not eval_closed(goal, env) for env in envs), (clause, cand)
    if max_cubes == 3:
        assert seen["dropped"] >= 500 and seen["exact drops"] >= 150, seen
        assert seen["points"] >= 200 and seen["too large"] >= 400, seen
    else:
        assert seen["dropped"] >= 800 and seen["exact drops"] >= 250, seen
        assert seen["points"] >= 700, seen
    # candidates dropped before their literals are built, and from literals
    # built for the hypotheses first
    assert seen["dropped from k1"] >= 500 and seen["dropped from k0"] >= 5, seen
