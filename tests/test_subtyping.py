"""Subtyping and context inclusion: emitted constraint shapes plus the
reflexivity/transitivity/weakening lemmas at the validity level."""

import random

import pytest

from gen import any_type, base_type, ctx_with_vars, loc_ctx
from lrcheck.constraints import TRIVIAL, Head, Provenance, Solution, clauses, normalize
from lrcheck.errors import StructuralError
from lrcheck.oracle import Oracle, Query
from lrcheck.parser import parse_refexpr as R
from lrcheck.parser import parse_type
from lrcheck.subtyping import NameSupply, ctx_include, subtype
from lrcheck.syntax import (
    AbstractLoc,
    Eq,
    Indexed,
    IntBase,
    LocCtx,
    Sort,
    Uninit,
    Var,
)
from test_constraints import apply_solution

PROV = Provenance("test")


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


def constraint_valid(c, oracle, extra_binders=(), extra_hyps=()) -> bool:
    resolved = apply_solution(c, Solution())
    for clause in clauses(normalize(resolved)):
        verdict = oracle.valid(
            Query(
                tuple(extra_binders) + clause.binders,
                tuple(extra_hyps) + clause.hyps,
                clause.head,
            )
        )
        if not verdict.is_valid:
            return False
    return True


def test_decr_assignment_query(oracle):
    c = subtype(
        parse_type("int[a - 1]"),
        parse_type("{b. int[b] | b >= 0}"),
        PROV,
        NameSupply(),
    )
    cls = clauses(normalize(c))
    assert len(cls) == 1
    assert cls[0].head == R("a - 1 >= 0")
    # valid under the branch context, invalid without the guard
    assert oracle.valid(
        Query((("a", Sort.INT),), (R("a >= 0"), R("a > 0")), cls[0].head)
    ).is_valid
    assert not oracle.valid(
        Query((("a", Sort.INT),), (R("a >= 0"),), cls[0].head)
    ).is_valid


def test_equal_indices_build_no_equation():
    t = Indexed(IntBase(), R("a + 1"))
    assert subtype(t, Indexed(IntBase(), t.idx), PROV, NameSupply()) == TRIVIAL


def test_vectors_of_equal_lengths_leave_only_the_element_obligation():
    lhs = parse_type("Vec<int[a]>[n]")
    rhs = parse_type("Vec<{v. int[v] | v >= 0}>[n]")
    c = subtype(lhs, rhs, PROV, NameSupply())
    assert c == Head(R("a >= 0"), PROV)


def test_unequal_indices_still_owe_an_equation():
    c = subtype(parse_type("int[a]"), parse_type("int[b]"), PROV, NameSupply())
    assert c == Head(Eq(Var("a"), Var("b")), PROV)


def test_ptr_mismatch_is_structural():
    with pytest.raises(StructuralError):
        subtype(parse_type("ptr(l1)"), parse_type("ptr(l2)"), PROV, NameSupply())


def test_uninit_sizes_must_match():
    subtype(Uninit(2), Uninit(2), PROV, NameSupply())
    with pytest.raises(StructuralError):
        subtype(Uninit(1), Uninit(2), PROV, NameSupply())


def test_head_constructor_mismatch():
    with pytest.raises(StructuralError):
        subtype(parse_type("int[0]"), parse_type("&mut int[0]"), PROV, NameSupply())


def test_shared_refs_covariant_mut_invariant(oracle):
    shr = subtype(
        parse_type("&shr int[1]"),
        parse_type("&shr {v. int[v] | v >= 0}"),
        PROV,
        NameSupply(),
    )
    assert constraint_valid(shr, oracle)
    mut = subtype(
        parse_type("&mut int[1]"),
        parse_type("&mut {v. int[v] | v >= 0}"),
        PROV,
        NameSupply(),
    )
    # the reverse inclusion {v >= 0} <= int[1] is not valid
    assert not constraint_valid(mut, oracle)


def test_fnsig_contravariance(oracle):
    stronger = parse_type("fn {a: int | a > 0}( int[a] ) -> {v. int[v] | v > 0}")
    weaker = parse_type("fn {a: int | a > 1}( int[a] ) -> {v. int[v] | v >= 0}")
    ok = subtype(stronger, weaker, PROV, NameSupply())
    assert constraint_valid(ok, oracle)
    with pytest.raises(StructuralError):
        subtype(
            stronger,
            parse_type("fn {a: bool}( int[0] ) -> int[0]"),
            PROV,
            NameSupply(),
        )
    bad = subtype(weaker, stronger, PROV, NameSupply())
    assert not constraint_valid(bad, oracle)


def _sample_ctx_and_types(rng, count=1):
    ctx, ints, bools, locs = ctx_with_vars(rng, n_int=2, n_bool=0, n_loc=1)
    types = [any_type(rng, ints, locs, ["p", "q"], 2) for _ in range(count)]
    return ctx, types


def test_subtyping_reflexive(oracle):
    rng = random.Random(41)
    for _ in range(200):
        ctx, (t,) = _sample_ctx_and_types(rng, 1)
        c = subtype(t, t, PROV, NameSupply())
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        assert constraint_valid(c, oracle, binders), t


def test_subtyping_transitive_on_base_types(oracle):
    rng = random.Random(42)
    checked = 0

    def attempt(binders, t1, t2, t3):
        nonlocal checked
        names = NameSupply()
        try:
            c12 = subtype(t1, t2, PROV, names)
            c23 = subtype(t2, t3, PROV, names)
        except StructuralError:
            return
        if not (
            constraint_valid(c12, oracle, binders)
            and constraint_valid(c23, oracle, binders)
        ):
            return
        c13 = subtype(t1, t3, PROV, names)
        assert constraint_valid(c13, oracle, binders), (t1, t2, t3)
        checked += 1

    for _ in range(400):
        ctx, ints, _, _ = ctx_with_vars(rng, n_int=2)
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        attempt(binders, *(base_type(rng, ints, ["p"]) for _ in range(3)))
    # constructed chains int[k] <= {v >= a} <= {v >= b} with k >= a >= b
    for _ in range(200):
        b = rng.randrange(-4, 3)
        a = b + rng.randrange(0, 3)
        k = a + rng.randrange(0, 3)
        t1 = parse_type(f"int[{k}]" if k >= 0 else f"int[0 - {-k}]")
        t2 = parse_type(f"{{v. int[v] | v >= {a}}}" if a >= 0 else f"{{v. int[v] | v >= 0 - {-a}}}")
        t3 = parse_type(f"{{v. int[v] | v >= {b}}}" if b >= 0 else f"{{v. int[v] | v >= 0 - {-b}}}")
        attempt((), t1, t2, t3)
    assert checked >= 200


def test_subtyping_weakening(oracle):
    rng = random.Random(43)
    checked = 0
    for _ in range(200):
        ctx, ints, _, _ = ctx_with_vars(rng, n_int=2)
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        t1 = base_type(rng, ints, ["p"])
        t2 = base_type(rng, ints, ["p"])
        try:
            c = subtype(t1, t2, PROV, NameSupply())
        except StructuralError:
            continue
        if not constraint_valid(c, oracle, binders):
            continue
        widened = binders + (("w0", Sort.INT),)
        assert constraint_valid(c, oracle, widened, (R("w0 > 2"),))
        checked += 1
    assert checked >= 25


def test_ctx_include_weaken(oracle):
    l1 = LocCtx(
        (
            (AbstractLoc("l"), parse_type("int[1]")),
            (AbstractLoc("k"), parse_type("int[2]")),
        )
    )
    l2 = LocCtx(((AbstractLoc("l"), parse_type("int[1]")),))
    c = ctx_include(l1, l2, PROV, NameSupply())
    assert constraint_valid(c, oracle)


def test_ctx_include_missing_location():
    l1 = LocCtx(((AbstractLoc("l"), parse_type("int[1]")),))
    l2 = LocCtx(
        (
            (AbstractLoc("l"), parse_type("int[1]")),
            (AbstractLoc("k"), parse_type("int[2]")),
        )
    )
    with pytest.raises(StructuralError):
        ctx_include(l1, l2, PROV, NameSupply())


def test_ctx_include_permutation(oracle):
    rng = random.Random(44)
    for _ in range(100):
        ctx, ints, _, locs = ctx_with_vars(rng, n_int=2, n_loc=0)
        names = [f"l{i}" for i in range(rng.randrange(1, 4))]
        for n in names:
            ctx = ctx.bind(n, Sort.LOC)
        locs_ctx = loc_ctx(rng, ints, names, ["p"])
        perm = list(locs_ctx.items)
        rng.shuffle(perm)
        permuted = LocCtx(tuple(perm))
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        c = ctx_include(locs_ctx, permuted, PROV, NameSupply())
        assert constraint_valid(c, oracle, binders)
        back = ctx_include(permuted, locs_ctx, PROV, NameSupply())
        assert constraint_valid(back, oracle, binders)


def test_ctx_include_nat_weakening(oracle):
    # int[1] flows into the nat cell shape: reduces to the obligation 1 >= 0,
    # which normalization prunes as trivially true
    l1 = LocCtx(((AbstractLoc("l"), parse_type("int[1]")),))
    l2 = LocCtx(((AbstractLoc("l"), parse_type("{b. int[b] | b >= 0}")),))
    c = ctx_include(l1, l2, PROV, NameSupply())
    assert _raw_heads(c) == [R("1 >= 0")]
    assert clauses(normalize(c)) == []
    assert constraint_valid(c, oracle)


def _raw_heads(c):
    from lrcheck.constraints import Conj, ForAll, Head

    out = []

    def walk(node):
        match node:
            case Head(goal, _):
                out.append(goal)
            case Conj(parts):
                for p in parts:
                    walk(p)
            case ForAll(_, _, body):
                walk(body)

    walk(c)
    return out


def test_ctx_include_transitive_on_equal_domains(oracle):
    rng = random.Random(45)
    checked = 0
    for i in range(400):
        ctx, ints, _, _ = ctx_with_vars(rng, n_int=2)
        ctx = ctx.bind("l0", Sort.LOC)
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        if i % 2 == 0:
            b = rng.randrange(0, 3)
            a = b + rng.randrange(0, 3)
            k = a + rng.randrange(0, 3)
            ts = [
                parse_type(f"int[{k}]"),
                parse_type(f"{{v. int[v] | v >= {a}}}"),
                parse_type(f"{{v. int[v] | v >= {b}}}"),
            ]
        else:
            ts = [base_type(rng, ints, ["p"]) for _ in range(3)]
        l1, l2, l3 = (LocCtx(((AbstractLoc("l0"), t),)) for t in ts)
        names = NameSupply()
        try:
            c12 = ctx_include(l1, l2, PROV, names)
            c23 = ctx_include(l2, l3, PROV, names)
        except StructuralError:
            continue
        if not (
            constraint_valid(c12, oracle, binders)
            and constraint_valid(c23, oracle, binders)
        ):
            continue
        c13 = ctx_include(l1, l3, PROV, names)
        assert constraint_valid(c13, oracle, binders)
        checked += 1
    assert checked >= 150
