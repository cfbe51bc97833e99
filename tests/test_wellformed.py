"""Well-formedness judgments for types and contexts."""

import pytest

from lrcheck.logic import RefCtx
from lrcheck.parser import parse_refexpr as R
from lrcheck.parser import parse_type
from lrcheck.syntax import (
    AbstractLoc,
    LocCtx,
    Sort,
    Uninit,
)
from lrcheck.wellformed import (
    ValCtx,
    WfError,
    wf_locctx,
    wf_refctx,
    wf_type,
    wf_valctx,
)


def test_indexed_int_ok():
    ctx = RefCtx().bind("n", Sort.INT)
    wf_type(ctx, parse_type("int[n + 1]"))


def test_nat_existential_ok():
    wf_type(RefCtx(), parse_type("{a. int[a] | a >= 0}"))


def test_index_sort_mismatch():
    with pytest.raises(WfError):
        wf_type(RefCtx(), parse_type("int[true]"))
    with pytest.raises(WfError):
        wf_type(RefCtx().bind("b", Sort.BOOL), parse_type("int[b]"))


def test_existential_body_must_be_bool():
    with pytest.raises(WfError):
        wf_type(RefCtx(), parse_type("{a. int[a] | a + 1}"))


def test_fnsig_out_locs_must_be_subset_of_in():
    sig = parse_type("fn {l: loc}( ptr(l) ) -> uninit(1); l -> int[0]")
    with pytest.raises(WfError) as err:
        wf_type(RefCtx(), sig)
    assert "output locations" in str(err.value)


def test_fnsig_incr_shape_ok():
    sig = parse_type(
        "fn {a: int, l: loc | true | l -> int[a]}( ptr(l) ) -> uninit(1); "
        "l -> int[a + 1]"
    )
    wf_type(RefCtx(), sig)


def test_ptr_requires_loc_sorted_binder():
    with pytest.raises(WfError):
        wf_type(RefCtx(), parse_type("ptr(l)"))
    with pytest.raises(WfError):
        wf_type(RefCtx().bind("l", Sort.INT), parse_type("ptr(l)"))
    wf_type(RefCtx().bind("l", Sort.LOC), parse_type("ptr(l)"))


def test_locctx_ok_and_duplicates():
    ctx = RefCtx().bind("l", Sort.LOC)
    wf_locctx(ctx, LocCtx(((AbstractLoc("l"), Uninit(1)),)))
    dup = LocCtx(
        ((AbstractLoc("l"), Uninit(1)), (AbstractLoc("l"), Uninit(1)))
    )
    with pytest.raises(WfError) as err:
        wf_locctx(ctx, dup)
    assert "duplicate" in str(err.value)


def test_refctx_duplicate_binder():
    bad = RefCtx().bind("a", Sort.INT).bind("a", Sort.BOOL)
    with pytest.raises(WfError):
        wf_refctx(bad)


def test_refctx_assumption_sorts():
    ok = RefCtx().bind("a", Sort.INT).assume(R("a >= 0"))
    wf_refctx(ok)
    bad = RefCtx().bind("a", Sort.INT).assume(R("a + 1"))
    with pytest.raises(WfError):
        wf_refctx(bad)


def test_valctx_duplicates():
    ctx = RefCtx()
    good = ValCtx().bind("x", Uninit(1)).bind("y", Uninit(1))
    wf_valctx(ctx, good)
    bad = ValCtx(((("x"), Uninit(1)), (("x"), Uninit(1))))
    with pytest.raises(WfError):
        wf_valctx(ctx, bad)


def test_wf_implies_free_vars_in_domain():
    # Lemma: wf types mention only bound refinement variables
    import random

    from gen import any_type, ctx_with_vars
    from lrcheck.logic import free_vars

    rng = random.Random(9)
    checked = 0
    for _ in range(300):
        ctx, ints, bools, locs = ctx_with_vars(rng, 2, 1, 1)
        t = any_type(rng, ints, locs, ["p"], 2)
        try:
            wf_type(ctx, t)
        except WfError:
            continue
        assert free_vars(t) <= set(ctx.domain())
        checked += 1
    assert checked >= 150


INT3, INT4 = parse_type("int[3]"), parse_type("int[4]")


def test_valctx_branches_that_bind_at_one_position_keep_their_own_names():
    """What `Checker.restore` does: extend a snapshot, go back to it and
    extend it again at the same position with another name."""
    snap = ValCtx().bind("x", Uninit(1))
    then = snap.bind("y", INT3)
    els = snap.bind("z", INT4)
    assert then.lookup("y") == INT3 and then.lookup("z") is None
    assert els.lookup("z") == INT4 and els.lookup("y") is None
    assert snap.lookup("y") is None and snap.lookup("z") is None
    assert then.bind("w", INT4).lookup("y") == INT3
    assert els.bind("w", INT3).lookup("w") == INT3
    assert [ctx.domain() for ctx in (snap, then, els)] == [("x",), ("x", "y"), ("x", "z")]


def test_valctx_update_on_one_snapshot_does_not_show_through_another():
    snap = ValCtx().bind("x", Uninit(1)).bind("y", INT3)
    one = snap.update("x", INT3)
    two = snap.update("x", INT4)
    three = one.update("y", INT4)
    assert snap.lookup("x") == Uninit(1) and snap.lookup("y") == INT3
    assert one.lookup("x") == INT3 and one.lookup("y") == INT3
    assert two.lookup("x") == INT4 and two.lookup("y") == INT3
    assert three.lookup("x") == INT3 and three.lookup("y") == INT4
    assert three.items == (("x", INT3), ("y", INT4))
    assert snap.update("absent", INT3) == snap


def test_valctx_bind_rejects_a_bound_name():
    with pytest.raises(AssertionError):
        ValCtx().bind("x", INT3).update("x", INT4).bind("x", INT3)


def test_valctx_equality_hash_and_repr_see_only_the_items():
    grown = ValCtx().bind("x", Uninit(1)).bind("y", INT3).update("x", INT4)
    built = ValCtx((("x", INT4), ("y", INT3)))
    assert grown == built and hash(grown) == hash(built)
    assert repr(grown) == repr(built) == f"ValCtx(items={built.items!r})"
    assert grown != ValCtx((("y", INT3), ("x", INT4)))


def test_valctx_matches_a_scan_of_its_items_under_any_order_of_extensions():
    """Random binds and updates of random earlier contexts, as snapshots
    and restores make them, against a plain tuple of items."""
    import random

    rng = random.Random(7)
    names = ["a", "b", "c", "d", "e", "f"]
    types = [INT3, INT4, Uninit(1)]
    for _ in range(50):
        pool = [(ValCtx(), ())]
        for _ in range(40):
            ctx, model = rng.choice(pool)
            name, typ = rng.choice(names), rng.choice(types)
            if name in dict(model):
                model = tuple((n, typ if n == name else t) for n, t in model)
                ctx = ctx.update(name, typ)
            else:
                ctx, model = ctx.bind(name, typ), model + ((name, typ),)
            pool.append((ctx, model))
        for ctx, model in pool:
            assert ctx.items == model
            for name in names:
                assert ctx.lookup(name) == dict(model).get(name)
