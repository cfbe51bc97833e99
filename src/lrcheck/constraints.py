"""Horn constraint IR emitted by subtyping and typing, plus the qualifier
vocabulary and solution plumbing for the fixpoint solver.

Predicates are plain refinement expressions; unknown-predicate applications
are `KApp` nodes, conjunction is the boolean `and`.  A constraint is a tree
of universals, implications, conjunctions, and provenance-tagged heads.
After `normalize`, the tree is a conjunction of root-to-head paths whose
heads are single atoms (concrete or one KApp).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .logic import (
    conj,
    conjuncts,
    fold_constants,
    is_trivially_true,
    subst_parallel,
)
from .syntax import (
    BinArith,
    BinBool,
    Cmp,
    Eq,
    IntConst,
    KApp,
    KVarDecl,
    Not,
    RefExpr,
    Sort,
    Span,
    Var,
    subterms,
)


@dataclass(frozen=True)
class Provenance:
    rule: str
    span: Optional[Span] = None
    note: str = ""

    def __str__(self) -> str:
        at = str(self.span) if self.span is not None else "-"
        return f"{at} {self.rule}"


class Constraint:
    pass


@dataclass(frozen=True)
class Head(Constraint):
    goal: RefExpr
    provenance: Provenance


@dataclass(frozen=True)
class Implies(Constraint):
    hyp: RefExpr
    body: Constraint


@dataclass(frozen=True)
class ForAll(Constraint):
    binder: str
    sort: Sort
    hyp: RefExpr
    body: Constraint


@dataclass(frozen=True)
class Conj(Constraint):
    parts: Tuple[Constraint, ...]


TRIVIAL = Conj(())


class MissingKVar(Exception):
    pass


# ---------------------------------------------------------------------------
# Normalization and clause extraction

def normalize(c: Constraint) -> Constraint:
    """Flatten conjunctions, split conjunctive heads, hoist universals and
    implications over conjunctions, and drop trivially-true heads."""
    parts = tuple(_normalize(c))
    return parts[0] if len(parts) == 1 else Conj(parts)


def _normalize(c: Constraint) -> List[Constraint]:
    match c:
        case Conj(parts):
            out: List[Constraint] = []
            for p in parts:
                out.extend(_normalize(p))
            return out
        case Head(goal, prov):
            out = []
            for atom in conjuncts(fold_constants(goal)):
                if not is_trivially_true(atom):
                    out.append(Head(atom, prov))
            return out
        case Implies(hyp, body):
            hyp = fold_constants(hyp)
            inner = _normalize(body)
            if is_trivially_true(hyp):
                return inner
            return [Implies(hyp, b) for b in inner]
        case ForAll(binder, sort, hyp, body):
            hyp = fold_constants(hyp)
            inner = _normalize(body)
            return [ForAll(binder, sort, hyp, b) for b in inner]
        case _:
            raise TypeError(f"normalize: {c!r}")


@dataclass(frozen=True)
class Clause:
    cid: int
    binders: Tuple[Tuple[str, Sort], ...]
    hyps: Tuple[RefExpr, ...]
    head: RefExpr
    provenance: Provenance

    def is_kvar_head(self) -> bool:
        return isinstance(self.head, KApp)


def clauses(c: Constraint) -> List[Clause]:
    """Root-to-head flattening of a normalized constraint."""
    out: List[Clause] = []

    def walk(node: Constraint, binders, hyps):
        match node:
            case Conj(parts):
                for p in parts:
                    walk(p, binders, hyps)
            case Head(goal, prov):
                out.append(Clause(len(out), tuple(binders), tuple(hyps), goal, prov))
            case Implies(hyp, body):
                walk(body, binders, hyps + _hyp_list(hyp))
            case ForAll(binder, sort, hyp, body):
                walk(body, binders + [(binder, sort)], hyps + _hyp_list(hyp))
            case _:
                raise TypeError(f"clauses: {node!r}")

    walk(c, [], [])
    return out


def _hyp_list(hyp: RefExpr) -> List[RefExpr]:
    return [h for h in conjuncts(hyp) if not is_trivially_true(h)]


def kvars_in(exprs: Iterable[RefExpr]) -> Dict[str, KVarDecl]:
    """The unknown predicates applied in `exprs`, by name, in first-occurrence
    order."""
    seen: Dict[str, KVarDecl] = {}
    for e in exprs:
        for x in subterms(e):
            if isinstance(x, KApp):
                seen.setdefault(x.kvar.name, x.kvar)
    return seen


def kvars_of(c: Constraint) -> List[KVarDecl]:
    """All unknown predicates mentioned, in first-occurrence order."""
    exprs: List[RefExpr] = []

    def walk(node: Constraint):
        match node:
            case Conj(parts):
                for p in parts:
                    walk(p)
            case Head(goal, _):
                exprs.append(goal)
            case Implies(hyp, body) | ForAll(_, _, hyp, body):
                exprs.append(hyp)
                walk(body)

    walk(c)
    return list(kvars_in(exprs).values())


# ---------------------------------------------------------------------------
# Solutions

@dataclass
class Solution:
    """Assignment of each unknown predicate to a concrete predicate over its
    declared parameters."""

    assignment: Dict[str, RefExpr] = field(default_factory=dict)
    params: Dict[str, Tuple[Tuple[str, Sort], ...]] = field(default_factory=dict)

    def assign(self, kvar: KVarDecl, pred: RefExpr) -> None:
        self.assignment[kvar.name] = pred
        self.params[kvar.name] = kvar.params

    def pred_for(self, kvar: KVarDecl, args: Sequence[RefExpr]) -> RefExpr:
        if kvar.name not in self.assignment:
            raise MissingKVar(kvar.name)
        pred = self.assignment[kvar.name]
        mapping = {
            pname: arg for (pname, _), arg in zip(self.params[kvar.name], args)
        }
        return subst_parallel(pred, mapping)

    def dump(self) -> str:
        lines = []
        for name in self.assignment:
            ps = ", ".join(p for p, _ in self.params[name])
            from .printer import print_refexpr

            lines.append(f"kappa {name}({ps}) := {print_refexpr(self.assignment[name])}")
        return "\n".join(lines)


def apply_solution_expr(e: RefExpr, sol: Solution) -> RefExpr:
    match e:
        case KApp(kvar, args):
            resolved = tuple(apply_solution_expr(a, sol) for a in args)
            return sol.pred_for(kvar, resolved)
        case Eq(l, r):
            return Eq(apply_solution_expr(l, sol), apply_solution_expr(r, sol))
        case Not(a):
            return Not(apply_solution_expr(a, sol))
        case BinBool(op, l, r):
            return BinBool(op, apply_solution_expr(l, sol), apply_solution_expr(r, sol))
        case Cmp(op, l, r):
            return Cmp(op, apply_solution_expr(l, sol), apply_solution_expr(r, sol))
        case _:
            return e


def apply_solution(c: Constraint, sol: Solution) -> Constraint:
    """Replace every unknown-predicate application by its assigned predicate
    instantiated at the application arguments."""
    match c:
        case Conj(parts):
            return Conj(tuple(apply_solution(p, sol) for p in parts))
        case Head(goal, prov):
            return Head(apply_solution_expr(goal, sol), prov)
        case Implies(hyp, body):
            return Implies(apply_solution_expr(hyp, sol), apply_solution(body, sol))
        case ForAll(binder, sort, hyp, body):
            return ForAll(
                binder, sort, apply_solution_expr(hyp, sol), apply_solution(body, sol)
            )
        case _:
            raise TypeError(f"apply_solution: {c!r}")


# ---------------------------------------------------------------------------
# Qualifiers

@dataclass(frozen=True)
class Qualifier:
    """Atomic predicate template over a value symbol and an optional
    metavariable of the same scope."""

    name: str
    nu_sort: Sort
    uses_meta: bool
    build: Callable[[RefExpr, Optional[RefExpr]], RefExpr] = field(compare=False)

    def instantiate(self, nu: RefExpr, meta: Optional[RefExpr]) -> RefExpr:
        return self.build(nu, meta)


def _q(name: str, nu_sort: Sort, uses_meta: bool, build) -> Qualifier:
    return Qualifier(name, nu_sort, uses_meta, build)


def default_qualifiers() -> List[Qualifier]:
    zero = IntConst(0)
    one = IntConst(1)
    return [
        _q("nonneg", Sort.INT, False, lambda v, m: Cmp(">=", v, zero)),
        _q("pos", Sort.INT, False, lambda v, m: Cmp(">", v, zero)),
        _q("eq", Sort.INT, True, lambda v, m: Eq(v, m)),
        _q("le", Sort.INT, True, lambda v, m: Cmp("<=", v, m)),
        _q("lt", Sort.INT, True, lambda v, m: Cmp("<", v, m)),
        _q("ge", Sort.INT, True, lambda v, m: Cmp(">=", v, m)),
        _q("gt", Sort.INT, True, lambda v, m: Cmp(">", v, m)),
        _q("eq-succ", Sort.INT, True, lambda v, m: Eq(v, BinArith("+", m, one))),
        _q("eq-pred", Sort.INT, True, lambda v, m: Eq(v, BinArith("-", m, one))),
        _q("holds", Sort.BOOL, False, lambda v, m: v),
        _q("fails", Sort.BOOL, False, lambda v, m: Not(v)),
    ]


def instantiations(kvar: KVarDecl, quals: Sequence[Qualifier]) -> List[RefExpr]:
    """All well-sorted qualifier instantiations over a kvar's parameters:
    each parameter may play the value symbol, metavariables range over the
    remaining same-sort parameters."""
    out: List[RefExpr] = []
    for i, (pname, psort) in enumerate(kvar.params):
        nu = Var(pname)
        for q in quals:
            if q.nu_sort != psort:
                continue
            if not q.uses_meta:
                out.append(q.instantiate(nu, None))
                continue
            for j, (mname, msort) in enumerate(kvar.params):
                if j == i or msort != psort:
                    continue
                out.append(q.instantiate(nu, Var(mname)))
    # deduplicate, preserving order
    seen = set()
    uniq = []
    for e in out:
        if e not in seen:
            seen.add(e)
            uniq.append(e)
    return uniq


# ---------------------------------------------------------------------------
# Dumps

def dump_clauses_text(cls: Sequence[Clause]) -> str:
    from .printer import print_refexpr

    lines = []
    for cl in cls:
        binders = " ".join(f"{n}:{s}" for n, s in cl.binders)
        hyps = "; ".join(print_refexpr(h) for h in cl.hyps)
        lines.append(
            f"clause {cl.cid} [{binders}] [{hyps}] => "
            f"{print_refexpr(cl.head)} @ {cl.provenance}"
        )
    return "\n".join(lines)


def dump_clauses_json(cls: Sequence[Clause]) -> str:
    from .printer import print_refexpr

    objs = []
    for cl in cls:
        objs.append(
            {
                "id": cl.cid,
                "binders": [[n, str(s)] for n, s in cl.binders],
                "hyps": [print_refexpr(h) for h in cl.hyps],
                "head": print_refexpr(cl.head),
                "rule": cl.provenance.rule,
                "span": str(cl.provenance.span) if cl.provenance.span else None,
            }
        )
    return json.dumps(objs, indent=2)
