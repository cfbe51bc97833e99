"""Sorts, interpretation, the refinement-term traversal, free variables,
and substitution, including the substitution lemma property suites."""

import dataclasses
import random

import pytest

from gen import any_type, bool_expr, ctx_with_vars, int_expr, loc_ctx
from lrcheck.logic import (
    Assume,
    Bind,
    RefCtx,
    SortError,
    free_vars,
    getsort,
    interp,
    sortcheck,
    subst,
    subst_parallel,
)
from lrcheck.parser import parse_refexpr, parse_type
from lrcheck.syntax import (
    AbstractLoc,
    BinArith,
    BoolBase,
    BoolConst,
    BoolLit,
    Eq,
    Exists,
    Indexed,
    IntBase,
    IntConst,
    IntLit,
    KVarDecl,
    LocCtx,
    Poison,
    RefExpr,
    Sort,
    TaggedPtr,
    Type,
    Var,
    VecBase,
    VecVal,
    children,
    subterms,
)

R = parse_refexpr


def test_getsort_table():
    assert getsort(IntBase()) == Sort.INT
    assert getsort(BoolBase()) == Sort.BOOL
    assert getsort(VecBase(Indexed(IntBase(), IntConst(0)))) == Sort.INT


def test_interp_table():
    assert interp(IntLit(7)) == IntConst(7)
    assert interp(BoolLit(True)) == BoolConst(True)
    assert interp(BoolLit(False)) == BoolConst(False)
    assert interp(VecVal(3, TaggedPtr(0, 0))) == IntConst(3)
    assert interp(Poison()) is None
    assert interp(TaggedPtr(1, 2)) is None


def test_sortcheck_examples():
    ctx = RefCtx().bind("a", Sort.INT)
    assert sortcheck(ctx, R("a + 1")) == Sort.INT
    with pytest.raises(SortError):
        sortcheck(RefCtx(), Var("a"))
    assert sortcheck(ctx, R("a < 2")) == Sort.BOOL
    with pytest.raises(SortError):
        sortcheck(ctx, Eq(R("a"), R("a < 1")))


def _with_var_leaves(cls):
    """An instance of `cls` whose refinement-term fields hold distinct
    variables, and those variables in field order."""
    leaves = []

    def leaf():
        leaves.append(Var(f"x{len(leaves)}"))
        return leaves[-1]

    values = {}
    for f in dataclasses.fields(cls):
        kind = str(f.type)
        if kind == "RefExpr":
            values[f.name] = leaf()
        elif kind == "Tuple[RefExpr, ...]":
            values[f.name] = (leaf(), leaf(), leaf())
        elif kind in ("KVarDecl", "'KVarDecl'", '"KVarDecl"'):
            values[f.name] = KVarDecl("k0", (("a", Sort.INT),) * 3)
        elif kind in ("str", "int", "bool"):
            values[f.name] = {"str": "op", "int": 1, "bool": True}[kind]
        else:
            raise AssertionError(f"{cls.__name__}.{f.name}: unexpected field type {kind}")
    return cls(**values), leaves


@pytest.mark.parametrize(
    "cls", sorted(RefExpr.__subclasses__(), key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_subterms_yield_every_field_in_order(cls):
    node, leaves = _with_var_leaves(cls)
    assert children(node) == tuple(leaves)
    assert list(subterms(node)) == [node] + leaves


def test_subterms_pre_order_without_recursion():
    e = R("a + 1 >= b && !(c = 2)")
    assert [type(x).__name__ for x in subterms(e)] == [
        "BinBool", "Cmp", "BinArith", "Var", "IntConst", "Var",
        "Not", "Eq", "Var", "IntConst",
    ]
    deep = Var("x0")
    for i in range(1, 10_000):
        deep = BinArith("+", deep, Var(f"x{i}"))
    assert free_vars(deep) == {f"x{i}" for i in range(10_000)}


def test_subst_is_subst_parallel_outside_refinement_contexts():
    rng = random.Random(8)
    fn = parse_type(
        "fn {a: int | a >= b | l -> int[a]}(int[a], int[b]) -> int[b]; l -> int[a]"
    )
    for _ in range(200):
        # "a" is both substituted and a binder that may shadow it
        t = any_type(rng, ["a", "b"], ["l"], ["a", "p"], depth=2)
        locs = loc_ctx(rng, ["a", "b"], ["l", "m"], ["a", "q"])
        repl = int_expr(rng, ["a", "b"], 1)
        for target in (t, locs, fn):
            for name, r in (("a", repl), ("b", repl), ("l", Var("k"))):
                assert subst(target, name, r) == subst_parallel(target, {name: r})


def test_subst_indexed():
    t = parse_type("int[a]")
    assert subst(t, "a", IntConst(5)) == parse_type("int[5]")


def test_subst_shadowed_existential():
    t = parse_type("{a. int[a] | a >= 0}")
    assert subst(t, "a", IntConst(5)) == t


def test_subst_loc_position():
    t = parse_type("ptr(l)")
    assert subst(t, "l", Var("k")) == parse_type("ptr(k)")


def _random_type(rng) -> Type:
    from gen import any_type

    return any_type(rng, ["a", "b"], ["l"], ["p", "q"], depth=2)


def test_id_var_substitution_property():
    rng = random.Random(0)
    for _ in range(200):
        t = _random_type(rng)
        assert subst(t, "a", Var("a")) == t


def test_subst_identity_when_not_free():
    rng = random.Random(1)
    for _ in range(200):
        t = _random_type(rng)
        name = "zz"
        assert name not in free_vars(t)
        assert subst(t, name, IntConst(9)) == t


def test_subst_composition_lemma():
    # (e[ea/a])[eb/b] == (e[eb/b])[ea[eb/b]/a]  when a not free in eb
    rng = random.Random(2)
    for _ in range(200):
        e = bool_expr(rng, ["a", "b", "c"], None, 2)
        ea = int_expr(rng, ["b", "c"], 1)
        eb = int_expr(rng, ["c"], 1)
        assert "a" not in free_vars(eb)
        lhs = subst(subst(e, "a", ea), "b", eb)
        rhs = subst(subst(e, "b", eb), "a", subst(ea, "b", eb))
        assert lhs == rhs


def test_subst_concatenation_over_locctx():
    rng = random.Random(3)
    for _ in range(200):
        t1 = _random_type(rng)
        t2 = _random_type(rng)
        l1 = LocCtx(((AbstractLoc("l1"), t1),))
        l2 = LocCtx(((AbstractLoc("l2"), t2),))
        joined = LocCtx(l1.items + l2.items)
        e = int_expr(rng, ["b"], 1)
        subbed = subst(joined, "a", e)
        split = LocCtx(subst(l1, "a", e).items + subst(l2, "a", e).items)
        assert subbed == split


def test_sortcheck_weakening():
    rng = random.Random(4)
    checked = 0
    for _ in range(300):
        ctx1, ints, bools, _ = ctx_with_vars(rng, n_int=2, n_bool=1)
        e = bool_expr(rng, ints, bools, 2)
        try:
            sort = sortcheck(ctx1, e)
        except SortError:
            continue
        ctx2 = ctx1.bind("extra", Sort.INT).assume(R("extra >= 0"))
        assert sortcheck(ctx2, e) == sort
        checked += 1
    assert checked >= 200


def test_free_vars_examples():
    t = Exists("a", IntBase(), Eq(Var("a"), Var("b")))
    assert free_vars(t) == {"b"}


def test_free_vars_binders_disjoint():
    rng = random.Random(5)

    def binders(t: Type):
        match t:
            case Exists(binder, _, _):
                return {binder}
            case Indexed(VecBase(elem), _):
                return binders(elem)
            case _:
                return set()

    for _ in range(200):
        t = _random_type(rng)
        assert not (free_vars(t) & binders(t))


def test_subst_parallel_is_simultaneous():
    e = R("a = b + 1")
    swapped = subst_parallel(e, {"a": Var("b"), "b": Var("a")})
    assert swapped == R("b = a + 1")
    # sequential substitution would have collapsed both to the same name
    seq = subst(subst(e, "a", Var("b")), "b", Var("a"))
    assert seq == R("a = a + 1")


# -- refinement contexts -----------------------------------------------------------


def test_refctx_branches_that_bind_at_one_position_keep_their_own_names():
    """What `Checker.restore` does: extend a snapshot, go back to it and
    extend it again at the same position with another name."""
    snap = RefCtx().bind("a", Sort.INT).assume(parse_refexpr("a >= 0"))
    then = snap.bind("t", Sort.BOOL).assume(parse_refexpr("t"))
    els = snap.bind("e", Sort.LOC)
    after = snap.bind("t", Sort.INT)
    assert then.sort_of("t") == Sort.BOOL and then.sort_of("e") is None
    assert els.sort_of("e") == Sort.LOC and els.sort_of("t") is None
    assert after.sort_of("t") == Sort.INT and after.sort_of("e") is None
    assert snap.sort_of("t") is None and snap.sort_of("a") == Sort.INT
    assert then.entries[:2] == els.entries[:2] == snap.entries
    assert len(then) == 4 and len(els) == 3 and len(snap) == 2


def test_refctx_equality_hash_and_repr_see_only_the_entries():
    grown = RefCtx().bind("a", Sort.INT).assume(parse_refexpr("a >= 0"))
    RefCtx().bind("b", Sort.INT)  # another context, with its own log
    built = RefCtx((Bind("a", Sort.INT), Assume(parse_refexpr("a >= 0"))))
    assert grown == built and hash(grown) == hash(built)
    assert repr(grown) == repr(built) == f"RefCtx(entries={built.entries!r})"
    assert grown != RefCtx((Bind("a", Sort.INT),))
    assert RefCtx() == RefCtx(()) and not RefCtx()


def test_refctx_matches_a_scan_of_its_entries_under_any_order_of_extensions():
    """Random extensions of random earlier contexts, as snapshots and
    restores make them, against a plain tuple scanned from the end."""
    rng = random.Random(5)
    names = ["a", "b", "c", "d", "e"]
    for _ in range(50):
        pool = [(RefCtx(), ())]
        for _ in range(40):
            ctx, model = rng.choice(pool)
            if rng.random() < 0.7:
                name, sort = rng.choice(names), rng.choice(list(Sort))
                ctx, model = ctx.bind(name, sort), model + (Bind(name, sort),)
            else:
                pred = BoolConst(rng.random() < 0.5)
                ctx, model = ctx.assume(pred), model + (Assume(pred),)
            pool.append((ctx, model))
        for ctx, model in pool:
            assert ctx.entries == model
            for name in names:
                binds = [e.sort for e in model if isinstance(e, Bind) and e.name == name]
                assert ctx.sort_of(name) == (binds[-1] if binds else None)
