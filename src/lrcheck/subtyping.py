"""Algorithmic subtyping and location-context inclusion.

Both judgments emit constraints instead of deciding validity inline.
Structural mismatches (pointer vs integer, differing strong-pointer
targets) raise StructuralError at the span of the obligation's
provenance; refinement obligations become Heads.
"""

from __future__ import annotations

from typing import Dict, Iterable

from .constraints import Conj, Constraint, ForAll, Head, Provenance, TRIVIAL
from .errors import StructuralError
from .logic import contains_kapp, getsort, subst, subst_parallel
from .printer import print_loc, print_type
from .syntax import (
    BaseType,
    BoolBase,
    Eq,
    Exists,
    FnSig,
    Indexed,
    IntBase,
    LocCtx,
    Ref,
    StrongPtr,
    Type,
    Uninit,
    Var,
    VecBase,
)


class NameSupply:
    """Deterministic fresh-name source; one per checked function."""

    def __init__(self):
        self.counters: Dict[str, int] = {}

    def fresh(self, base: str) -> str:
        base = base.split("%", 1)[0]
        n = self.counters.get(base, 0)
        self.counters[base] = n + 1
        return f"{base}%{n}"


def bases_compatible(b1: BaseType, b2: BaseType) -> bool:
    if isinstance(b1, IntBase) and isinstance(b2, IntBase):
        return True
    if isinstance(b1, BoolBase) and isinstance(b2, BoolBase):
        return True
    return isinstance(b1, VecBase) and isinstance(b2, VecBase)


def _conj(parts: Iterable[Constraint]) -> Constraint:
    """The conjunction of `parts` without the empty ones: a single part is
    itself, and none is `TRIVIAL`."""
    parts = tuple(p for p in parts if p != TRIVIAL)
    if len(parts) == 1:
        return parts[0]
    return Conj(parts) if parts else TRIVIAL


def subtype(
    lhs: Type, rhs: Type, prov: Provenance, names: NameSupply
) -> Constraint:
    """The obligations for `lhs` to be a subtype of `rhs`; the binders they
    open are fresh in `names`, the supply of the unit being checked.  Two
    indexed types with equal indices, compared as given, owe no equation,
    and none is built: what is left is a vector's element obligation, or
    `TRIVIAL`."""
    match (lhs, rhs):
        case (Indexed(b1, e1), Indexed(b2, e2)):
            if not bases_compatible(b1, b2):
                raise StructuralError(
                    f"base mismatch: {print_type(lhs)} vs {print_type(rhs)}", prov.span
                )
            # equal indices need no equation: the index a call's
            # instantiation substitutes for a formal is the actual's own
            parts = [] if e1 == e2 else [Head(Eq(e1, e2), prov)]
            if isinstance(b1, VecBase):
                parts.append(subtype(b1.elem, b2.elem, prov, names))
            return _conj(parts)

        case (Exists(a, b1, p), _):
            if not isinstance(rhs, (Indexed, Exists)):
                raise StructuralError(
                    f"cannot relate {print_type(lhs)} to {print_type(rhs)}", prov.span
                )
            fresh = names.fresh(a)
            hyp = subst(p, a, Var(fresh))
            body = subtype(Indexed(b1, Var(fresh)), rhs, prov, names)
            return ForAll(((fresh, getsort(b1)),), (hyp,), body)

        case (Indexed(b1, e1), Exists(a, b2, p)):
            if not bases_compatible(b1, b2):
                raise StructuralError(
                    f"base mismatch: {print_type(lhs)} vs {print_type(rhs)}", prov.span
                )
            parts = []
            if isinstance(b1, VecBase):
                parts.append(subtype(b1.elem, b2.elem, prov, names))
            if contains_kapp(p) and not isinstance(e1, Var):
                # keep unknown predicates applied to a plain binder
                fresh = names.fresh("v")
                parts.append(
                    ForAll(
                        ((fresh, getsort(b1)),),
                        (Eq(Var(fresh), e1),),
                        Head(subst(p, a, Var(fresh)), prov),
                    )
                )
            else:
                parts.append(Head(subst(p, a, e1), prov))
            return _conj(parts)

        case (StrongPtr(l1), StrongPtr(l2)):
            if l1 != l2:
                raise StructuralError(
                    f"strong pointers to different locations: "
                    f"{print_loc(l1)} vs {print_loc(l2)}", prov.span
                )
            return TRIVIAL

        case (Uninit(n1), Uninit(n2)):
            if n1 != n2:
                raise StructuralError(f"uninit sizes differ: {n1} vs {n2}", prov.span)
            return TRIVIAL

        case (Ref("shr", t1), Ref("shr", t2)):
            return subtype(t1, t2, prov, names)

        case (Ref("mut", t1), Ref("mut", t2)):
            return _conj((subtype(t1, t2, prov, names), subtype(t2, t1, prov, names)))

        case (FnSig() as f1, FnSig() as f2):
            return _sub_fun(f1, f2, prov, names)

        case _:
            raise StructuralError(
                f"cannot relate {print_type(lhs)} to {print_type(rhs)}", prov.span
            )


def _sub_fun(f1: FnSig, f2: FnSig, prov, names) -> Constraint:
    if len(f1.refparams) != len(f2.refparams):
        raise StructuralError(
            "signatures declare different refinement parameters", prov.span
        )
    for (_, s1), (_, s2) in zip(f1.refparams, f2.refparams):
        if s1 != s2:
            raise StructuralError("refinement parameter sorts differ", prov.span)
    if len(f1.args) != len(f2.args):
        raise StructuralError("signatures take different argument counts", prov.span)

    # alpha-normalize both signatures onto a shared parameter list
    shared = [(names.fresh(n), s) for n, s in f1.refparams]

    def rename(sig: FnSig):
        mapping = {old: Var(new) for (old, _), (new, _) in zip(sig.refparams, shared)}
        return (
            subst_parallel(sig.requires, mapping),
            subst_parallel(sig.in_locs, mapping),
            tuple(subst_parallel(a, mapping) for a in sig.args),
            subst_parallel(sig.ret, mapping),
            subst_parallel(sig.out_locs, mapping),
        )

    req1, in1, args1, ret1, out1 = rename(f1)
    req2, in2, args2, ret2, out2 = rename(f2)

    parts = [ForAll((), (req2,), Head(req1, prov))]
    parts.append(ctx_include(in2, in1, prov, names))
    for a2, a1 in zip(args2, args1):
        parts.append(subtype(a2, a1, prov, names))
    parts.append(subtype(ret1, ret2, prov, names))
    parts.append(ctx_include(out1, out2, prov, names))
    return ForAll(tuple(shared), (), Conj(tuple(parts)))


def ctx_include(
    lhs: LocCtx,
    rhs: LocCtx,
    prov: Provenance,
    names: NameSupply,
) -> Constraint:
    """Inclusion of location contexts: free reordering, dropping of extra
    bindings on the left, pointwise subtyping on the shared domain."""
    missing = [l for l in rhs.domain() if lhs.lookup(l) is None]
    if missing:
        raise StructuralError(
            "missing locations: " + ", ".join(print_loc(l) for l in missing), prov.span
        )
    parts = []
    for loc, want in rhs:
        have = lhs.lookup(loc)
        assert have is not None
        parts.append(subtype(have, want, prov, names))
    return _conj(parts)
