"""Predefined arithmetic and comparison functions.

These are ordinary values with refined signatures; each computes one
operator of refinement terms (`syntax.OPERATORS`), so its signature's
result index is that operator over its arguments, and the interpreter
applies the operator's value."""

from __future__ import annotations

from typing import Dict

from .syntax import (
    OPERATORS,
    BoolBase,
    FnSig,
    Indexed,
    IntBase,
    LocCtx,
    PrimOp,
    Sort,
    TRUE,
    Value,
    Var,
)

# each builtin's name and the operator it computes
BUILTIN_OPS: Dict[str, str] = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "gt": ">",
    "ge": ">=",
    "lt": "<",
    "le": "<=",
    "eq": "=",
}


def _binop_sig(symbol: str) -> FnSig:
    op = OPERATORS[symbol]
    a1, a2 = Var("a1"), Var("a2")
    result_base = IntBase() if op.result == Sort.INT else BoolBase()
    return FnSig(
        refparams=(("a1", Sort.INT), ("a2", Sort.INT)),
        requires=TRUE,
        in_locs=LocCtx(),
        args=(Indexed(IntBase(), a1), Indexed(IntBase(), a2)),
        ret=Indexed(result_base, op.build(a1, a2)),
        out_locs=LocCtx(),
    )


BUILTIN_SIGS: Dict[str, FnSig] = {
    name: _binop_sig(symbol) for name, symbol in BUILTIN_OPS.items()
}

BUILTIN_VALUES: Dict[str, Value] = {name: PrimOp(name) for name in BUILTIN_OPS}


def prim_apply(name: str, a: int, b: int):
    return OPERATORS[BUILTIN_OPS[name]].value(a, b)
