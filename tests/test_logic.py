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
    Cmp,
    Eq,
    Exists,
    Indexed,
    IntBase,
    IntConst,
    IntLit,
    KVarDecl,
    LocConst,
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
    assert sortcheck(RefCtx(), LocConst(3)) == Sort.LOC
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
            for name, r in (("a", repl), ("b", repl), ("l", Var("k")), ("l", LocConst(2))):
                assert subst(target, name, r) == subst_parallel(target, {name: r})


def test_subst_drops_the_substituted_binder_of_a_refinement_context():
    ctx = RefCtx().bind("a", Sort.INT).assume(R("a >= 0")).bind("b", Sort.INT)
    ctx = ctx.assume(R("a < b"))
    assert subst(ctx, "a", IntConst(3)) == RefCtx(
        (Assume(R("3 >= 0")), Bind("b", Sort.INT), Assume(R("3 < b")))
    )
    assert subst({"x": parse_type("int[a]")}, "a", Var("b")) == {
        "x": parse_type("int[b]")
    }


def test_subst_indexed():
    t = parse_type("int[a]")
    assert subst(t, "a", IntConst(5)) == parse_type("int[5]")


def test_subst_shadowed_existential():
    t = parse_type("{a. int[a] | a >= 0}")
    assert subst(t, "a", IntConst(5)) == t


def test_subst_loc_position():
    t = parse_type("ptr(l)")
    assert subst(t, "l", Var("k")) == parse_type("ptr(k)")
    assert subst(t, "l", LocConst(3)).loc.loc_id == 3


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
    assert free_vars(Poison()) == set()


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


def test_refexpr_substitution_into_expressions():
    """Refinement substitution into program expressions: call arguments are
    rewritten, unpack and rec binders shadow."""
    from lrcheck.logic import subst_refexpr_in_expr
    from lrcheck.parser import parse_expr

    e = parse_expr("call gt {a, 0} (y, 0)")
    out = subst_refexpr_in_expr(e, "a", IntConst(5))
    assert out == parse_expr("call gt {5, 0} (y, 0)")

    shadowed = parse_expr("unpack (x, a) in call gt {a, 0} (x, 0)")
    assert subst_refexpr_in_expr(shadowed, "a", IntConst(5)) == shadowed

    through = parse_expr("unpack (x, b) in call gt {a, 0} (x, 0)")
    assert subst_refexpr_in_expr(through, "a", IntConst(5)) == parse_expr(
        "unpack (x, b) in call gt {5, 0} (x, 0)"
    )

    recfn = parse_expr("rec f {a: int} (x) := call gt {a, 0} (x, 0)")
    assert subst_refexpr_in_expr(recfn, "a", IntConst(5)) == recfn

    letnew = parse_expr("let x = new(l) in call gt {l = l, true} ()")
    assert subst_refexpr_in_expr(letnew, "l", Var("k")) == letnew
