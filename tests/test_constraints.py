"""Constraint IR: normalization, clause extraction, solution application,
qualifier instantiation, and dump round-trips."""

import json
import random

import pytest

from lrcheck.constraints import (
    Conj,
    ForAll,
    Head,
    MissingKVar,
    Provenance,
    Solution,
    apply_solution_expr,
    clauses,
    default_qualifiers,
    dump_clauses_json,
    dump_clauses_text,
    instantiations,
    kvars_of,
    normalize,
)
from lrcheck.parser import parse_refexpr as R
from lrcheck.syntax import (
    BinBool,
    BoolConst,
    Cmp,
    Eq,
    IntConst,
    KApp,
    KVarDecl,
    Sort,
    Var,
)

PROV = Provenance("test")
V = (("v", Sort.INT),)


def apply_solution(c, sol: Solution):
    """`c` with every unknown-predicate application replaced by its assigned
    predicate at the application's arguments: a reference on constraint
    trees for the solver, which resolves clause by clause."""
    match c:
        case Conj(parts):
            return Conj(tuple(apply_solution(p, sol) for p in parts))
        case Head(goal, prov):
            return Head(apply_solution_expr(goal, sol), prov)
        case ForAll(binders, hyps, body):
            return ForAll(
                binders,
                tuple(apply_solution_expr(h, sol) for h in hyps),
                apply_solution(body, sol),
            )


def H(expr):
    return Head(expr, PROV)


def test_normalize_flattens_nested_conj():
    c = Conj((Conj((H(R("a >= 0")),)), H(R("a > 0"))))
    out = normalize(c)
    assert isinstance(out, Conj)
    assert len(out.parts) == 2
    assert all(isinstance(p, Head) for p in out.parts)


def test_normalize_splits_and_heads():
    c = H(BinBool("and", R("a >= 0"), R("a > 0")))
    out = normalize(c)
    assert isinstance(out, Conj) and len(out.parts) == 2


def test_normalize_prunes_trivial_heads():
    c = Conj((H(BoolConst(True)), H(Eq(Var("a"), Var("a"))), H(R("0 + 1 = 1"))))
    out = normalize(c)
    assert isinstance(out, Conj) and len(out.parts) == 0


def test_clauses_counts_heads():
    c = ForAll(
        (("v", Sort.INT),),
        (R("v >= 0"),),
        Conj((H(R("v > 0")), ForAll((), (R("v > 1"),), H(R("v > 0"))))),
    )
    cls = clauses(normalize(c))
    assert len(cls) == 2
    assert cls[0].binders == (("v", Sort.INT),)
    assert cls[0].hyps == (R("v >= 0"),)
    assert cls[1].hyps == (R("v >= 0"), R("v > 1"))


def test_head_only_clause_has_no_hyps():
    cls = clauses(normalize(H(R("x > 0"))))
    assert len(cls) == 1 and cls[0].hyps == () and cls[0].binders == ()


def test_trivially_true_closed_heads_are_pruned():
    assert clauses(normalize(H(R("1 < 2")))) == []


def test_make_vec_constraint_has_three_clauses():
    k1 = KVarDecl("k1", (("v", Sort.INT),))
    k2 = KVarDecl("k2", (("v", Sort.INT),))
    v = Var("v")
    c = Conj(
        (
            ForAll(V, (KApp(k1, (v,)),), H(KApp(k2, (v,)))),
            ForAll(V, (Eq(v, IntConst(42)),), H(KApp(k2, (v,)))),
            ForAll(V, (KApp(k2, (v,)),), H(Cmp(">", v, IntConst(0)))),
        )
    )
    cls = clauses(normalize(c))
    assert len(cls) == 3
    assert [c.is_kvar_head() for c in cls] == [True, True, False]
    assert kvars_of(c) == [k1, k2]


def test_apply_solution_example():
    k = KVarDecl("k", (("p0", Sort.INT),))
    sol = Solution()
    sol.assign(k, R("p0 >= 0"))
    out = apply_solution_expr(KApp(k, (Var("a"),)), sol)
    assert out == R("a >= 0")


def test_apply_solution_empty_on_kvar_free_is_identity():
    c = ForAll(V, (R("v > 1"),), H(R("v > 0")))
    assert apply_solution(c, Solution()) == c


def test_apply_solution_missing_kvar():
    k = KVarDecl("k", (("p0", Sort.INT),))
    with pytest.raises(MissingKVar):
        apply_solution_expr(KApp(k, (Var("a"),)), Solution())


def test_apply_then_clauses_commutes():
    rng = random.Random(17)
    k = KVarDecl("k", (("p0", Sort.INT),))
    sol = Solution()
    sol.assign(k, R("p0 >= 0"))
    for _ in range(100):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            body = H(KApp(k, (Var("v"),))) if rng.random() < 0.5 else H(R("v > 0"))
            if rng.random() < 0.5:
                body = ForAll((), (KApp(k, (Var("v"),)),), body)
            parts.append(ForAll(V, (BoolConst(True),), body))
        c = Conj(tuple(parts))
        via_constraint = clauses(normalize(apply_solution(c, sol)))
        direct = clauses(normalize(c))
        resolved = [
            (
                cl.binders,
                tuple(apply_solution_expr(h, sol) for h in cl.hyps),
                apply_solution_expr(cl.head, sol),
            )
            for cl in direct
        ]
        assert [(c.binders, c.hyps, c.head) for c in via_constraint] == resolved


def test_clause_validity_matches_nested_validity():
    """A solution validates a constraint tree (checked by independent
    recursive walk) iff it validates every extracted clause."""
    from lrcheck.oracle import Oracle, Query

    oracle = Oracle()
    rng = random.Random(23)
    k = KVarDecl("k", (("p0", Sort.INT),))

    def nested_valid(c, binders, hyps):
        match c:
            case Conj(parts):
                return all(nested_valid(p, binders, hyps) for p in parts)
            case Head(goal, _):
                return oracle.valid(Query(tuple(binders), tuple(hyps), goal)).is_valid
            case ForAll(bs, hs, body):
                return nested_valid(body, binders + list(bs), hyps + list(hs))

    agreements = 0
    for _ in range(60):
        sol = Solution()
        sol.assign(k, rng.choice([R("p0 >= 0"), R("p0 > 2"), R("p0 = 1")]))
        parts = []
        for _ in range(rng.randrange(1, 4)):
            goal = rng.choice(
                [KApp(k, (Var("v"),)), R("v >= 0"), R("v > 1"), R("v = v")]
            )
            hyp = rng.choice(
                [R("v > 3"), R("v >= 0"), KApp(k, (Var("v"),)), BoolConst(True)]
            )
            parts.append(ForAll(V, (hyp,), Head(goal, PROV)))
        c = apply_solution(Conj(tuple(parts)), sol)
        via_tree = nested_valid(c, [], [])
        via_clauses = all(
            oracle.valid(Query(cl.binders, cl.hyps, cl.head)).is_valid
            for cl in clauses(normalize(c))
        )
        assert via_tree == via_clauses
        agreements += 1
    assert agreements == 60


def test_qualifier_instantiations_cover_spec_vocabulary():
    k = KVarDecl("k", (("v", Sort.INT), ("m", Sort.INT), ("b", Sort.BOOL)))
    insts = instantiations(k, default_qualifiers())
    texts = {repr(i) for i in insts}
    v, m = Var("v"), Var("m")
    assert Cmp(">=", v, IntConst(0)) in insts
    assert Cmp(">", v, IntConst(0)) in insts
    assert Eq(v, m) in insts
    assert Cmp("<=", v, m) in insts
    assert Var("b") in insts
    from lrcheck.syntax import Not

    assert Not(Var("b")) in insts
    # metavariables only range over other parameters of the same sort
    assert Eq(v, Var("b")) not in insts


def test_text_dump_shape():
    cls = clauses(normalize(ForAll(V, (R("v >= 0"),), H(R("v + 1 > 0")))))
    text = dump_clauses_text(cls)
    assert text.startswith("clause 0 [v:int] [v >= 0] => v + 1 > 0 @")


def test_json_dump_roundtrip():
    from lrcheck.parser import parse_refexpr

    k = KVarDecl("k", (("v", Sort.INT),))
    c = Conj(
        (
            ForAll(V, (KApp(k, (Var("v"),)),), H(R("v > 0"))),
            ForAll(V, (R("v = 3"),), H(KApp(k, (Var("v"),)))),
        )
    )
    cls = clauses(normalize(c))
    blob = dump_clauses_json(cls)
    parsed = json.loads(blob)
    assert len(parsed) == len(cls)
    for obj, cl in zip(parsed, cls):
        assert obj["id"] == cl.cid
        assert [tuple(b) for b in obj["binders"]] == [
            (n, str(s)) for n, s in cl.binders
        ]
        # concrete expressions round-trip through the refinement parser
        for text, orig in zip(obj["hyps"], cl.hyps):
            if "$" not in text:
                assert parse_refexpr(text) == orig
