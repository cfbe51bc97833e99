"""Horn constraint IR emitted by subtyping and typing, plus the qualifier
vocabulary and solution plumbing for the fixpoint solver.

Predicates are plain refinement expressions; unknown-predicate applications
are `KApp` nodes, conjunction is the boolean `and`.  A constraint has three
node kinds: a provenance-tagged `Head`, a `Conj` of constraints, and a
`ForAll(binders, hyps, body)`, which binds sorted names and assumes
hypotheses over its body.  After `normalize`, a constraint is a conjunction
of single-atom heads (concrete or one KApp), each under at most one
`ForAll` whose hypotheses are atoms: one part per Horn clause.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .logic import (
    conjuncts,
    fold_constants,
    free_vars,
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
class ForAll(Constraint):
    binders: Tuple[Tuple[str, Sort], ...]
    hyps: Tuple[RefExpr, ...]
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
    """Flatten conjunctions, split conjunctive heads and hypotheses, drop
    trivially-true atoms, and merge nested universals: the result is a
    conjunction of heads, each under at most one `ForAll`."""
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
            return [Head(atom, prov) for atom in _atoms(goal)]
        case ForAll(binders, hyps, body):
            hyps = tuple(atom for hyp in hyps for atom in _atoms(hyp))
            out = []
            for b in _normalize(body):
                if isinstance(b, ForAll):
                    b = ForAll(binders + b.binders, hyps + b.hyps, b.body)
                elif binders or hyps:
                    b = ForAll(binders, hyps, b)
                out.append(b)
            return out
        case _:
            raise TypeError(f"normalize: {c!r}")


def _atoms(e: RefExpr) -> List[RefExpr]:
    return [a for a in conjuncts(fold_constants(e)) if not is_trivially_true(a)]


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
    """The clause list of a normalized constraint, one clause per head."""
    out: List[Clause] = []
    for part in c.parts if isinstance(c, Conj) else (c,):
        match part:
            case Head(goal, prov):
                out.append(Clause(len(out), (), (), goal, prov))
            case ForAll(binders, hyps, Head(goal, prov)):
                out.append(Clause(len(out), binders, hyps, goal, prov))
            case _:
                raise TypeError(f"clauses: not normalized: {part!r}")
    return out


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
            case ForAll(_, hyps, body):
                exprs.extend(hyps)
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


# ---------------------------------------------------------------------------
# Qualifiers

# The reserved names a qualifier's template is built over: no parameter is
# named so, since neither is an identifier nor a fresh name.
NU, META = "$v", "$m"


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

    @cached_property
    def template(self) -> RefExpr:
        """The qualifier over `NU` and, with a metavariable, `META`; built
        on first use and kept with the qualifier."""
        return self.build(Var(NU), Var(META) if self.uses_meta else None)

    @cached_property
    def shape(self) -> Optional[Tuple[int, int]]:
        """The hashes of the template and of the template with `NU` and
        `META` swapped, when the template mentions exactly the reserved
        names it is given; None otherwise (see `_may_repeat`)."""
        names = free_vars(self.template)
        if names != ({NU, META} if self.uses_meta else {NU}):
            return None
        swapped = subst_parallel(self.template, {NU: Var(META), META: Var(NU)})
        return hash(self.template), hash(swapped)


def _q(name: str, nu_sort: Sort, uses_meta: bool, build) -> Qualifier:
    return Qualifier(name, nu_sort, uses_meta, build)


@cache
def _defaults() -> Tuple[Qualifier, ...]:
    zero = IntConst(0)
    one = IntConst(1)
    return (
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
    )


def default_qualifiers() -> List[Qualifier]:
    """A fresh list of the same default qualifiers on every call, so that
    their templates are built once per process."""
    return list(_defaults())


# (qualifier, value parameter, metavariable parameter or None)
Candidate = Tuple[Qualifier, str, Optional[str]]


def instance(cand: Candidate) -> RefExpr:
    """The candidate's qualifier instantiated at its parameters."""
    q, nu, meta = cand
    return q.instantiate(Var(nu), None if meta is None else Var(meta))


def instantiations(kvar: KVarDecl, quals: Sequence[Qualifier]) -> List[Candidate]:
    """All well-sorted qualifier instantiations over a kvar's parameters:
    each parameter may play the value symbol, metavariables range over the
    remaining same-sort parameters.  Of instantiations with equal terms,
    only the first is kept."""
    out: List[Candidate] = []
    for i, (pname, psort) in enumerate(kvar.params):
        for q in quals:
            if q.nu_sort != psort:
                continue
            if not q.uses_meta:
                out.append((q, pname, None))
                continue
            for j, (mname, msort) in enumerate(kvar.params):
                if j != i and msort == psort:
                    out.append((q, pname, mname))
    if not _may_repeat(quals):
        return out
    first: Dict[RefExpr, Candidate] = {}
    for cand in out:
        first.setdefault(instance(cand), cand)
    return list(first.values())


def _may_repeat(quals: Sequence[Qualifier]) -> bool:
    """False when no two instantiations can have equal terms.  That holds
    when every template mentions exactly its reserved names, and the
    templates and their swaps are all distinct: then an instance's term
    gives back its template, up to a swap, and its parameters.  The check
    compares hashes, so a collision only costs building the terms."""
    hashes = set()
    for q in quals:
        shape = q.shape
        if shape is None:
            return True
        hashes.update(shape)
    return len(hashes) < 2 * len(quals)


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
