"""Deterministic random builders for refinement expressions, types, and
contexts used by the property tests."""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from lrcheck.logic import RefCtx
from lrcheck.syntax import (
    AbstractLoc,
    BinArith,
    BinBool,
    BoolBase,
    BoolConst,
    Cmp,
    Eq,
    Exists,
    Indexed,
    IntBase,
    IntConst,
    LocCtx,
    Not,
    Ref,
    RefExpr,
    Sort,
    StrongPtr,
    Type,
    Uninit,
    Var,
)


def int_expr(rng: random.Random, vars_int: List[str], depth: int = 2) -> RefExpr:
    if depth <= 0 or rng.random() < 0.4:
        if vars_int and rng.random() < 0.6:
            return Var(rng.choice(vars_int))
        return IntConst(rng.randrange(-3, 6))
    op = rng.choice(["+", "-", "*"])
    if op == "*":
        # keep products linear: one side constant
        return BinArith(
            "*", IntConst(rng.randrange(-2, 4)), int_expr(rng, vars_int, depth - 1)
        )
    return BinArith(
        op, int_expr(rng, vars_int, depth - 1), int_expr(rng, vars_int, depth - 1)
    )


def bool_expr(
    rng: random.Random,
    vars_int: List[str],
    vars_bool: Optional[List[str]] = None,
    depth: int = 2,
) -> RefExpr:
    vars_bool = vars_bool or []
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if vars_bool and rng.random() < 0.4:
            return Var(rng.choice(vars_bool))
        if rng.random() < 0.15:
            return BoolConst(rng.random() < 0.5)
        op = rng.choice(["<", "<=", ">", ">="])
        return Cmp(op, int_expr(rng, vars_int, 1), int_expr(rng, vars_int, 1))
    if roll < 0.5:
        return Not(bool_expr(rng, vars_int, vars_bool, depth - 1))
    if roll < 0.6:
        return Eq(int_expr(rng, vars_int, 1), int_expr(rng, vars_int, 1))
    op = rng.choice(["and", "or"])
    return BinBool(
        op,
        bool_expr(rng, vars_int, vars_bool, depth - 1),
        bool_expr(rng, vars_int, vars_bool, depth - 1),
    )


def base_type(
    rng: random.Random, vars_int: List[str], binder_pool: List[str]
) -> Type:
    """Indexed or existential type over int/bool."""
    if rng.random() < 0.5:
        if rng.random() < 0.7:
            return Indexed(IntBase(), int_expr(rng, vars_int, 1))
        return Indexed(BoolBase(), BoolConst(rng.random() < 0.5))
    binder = rng.choice(binder_pool)
    return Exists(binder, IntBase(), bool_expr(rng, vars_int + [binder], None, 1))


def any_type(
    rng: random.Random,
    vars_int: List[str],
    vars_loc: List[str],
    binder_pool: List[str],
    depth: int = 2,
) -> Type:
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return base_type(rng, vars_int, binder_pool)
    if roll < 0.6 and vars_loc:
        return StrongPtr(AbstractLoc(rng.choice(vars_loc)))
    if roll < 0.7:
        return Uninit(rng.randrange(1, 3))
    mode = rng.choice(["mut", "shr"])
    return Ref(mode, any_type(rng, vars_int, vars_loc, binder_pool, depth - 1))


def ctx_with_vars(
    rng: random.Random, n_int: int = 2, n_bool: int = 0, n_loc: int = 0
) -> Tuple[RefCtx, List[str], List[str], List[str]]:
    ctx = RefCtx()
    ints, bools, locs = [], [], []
    for i in range(n_int):
        name = f"gi{i}"
        ctx = ctx.bind(name, Sort.INT)
        ints.append(name)
    for i in range(n_bool):
        name = f"gb{i}"
        ctx = ctx.bind(name, Sort.BOOL)
        bools.append(name)
    for i in range(n_loc):
        name = f"gl{i}"
        ctx = ctx.bind(name, Sort.LOC)
        locs.append(name)
    return ctx, ints, bools, locs


def loc_ctx(
    rng: random.Random, vars_int: List[str], locs: List[str], binder_pool: List[str]
) -> LocCtx:
    items = []
    for name in locs:
        items.append((AbstractLoc(name), base_type(rng, vars_int, binder_pool)))
    return LocCtx(tuple(items))


def borrow_chain(n: int) -> str:
    """An entry of `n` successive `&mut` borrows of one cell, each
    incrementing it once through `add`."""
    lines = ["let c = new(lc) in", "let t0 = c := 0 in"]
    for i in range(1, n + 1):
        lines += [
            f"let r{i} = &mut c in",
            f"let y{i} = *r{i} in",
            f"let u{i} = r{i} := call add(y{i}, 1) in",
        ]
    return "entry\n  " + "\n  ".join(lines + ["*c"]) + "\n"
