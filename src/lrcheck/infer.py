"""Shape inference (unknown-predicate templates at joins, borrows, and
unannotated inner rec functions) and the liquid fixpoint solver."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .constraints import (
    Clause,
    Constraint,
    Provenance,
    Qualifier,
    Solution,
    apply_solution_expr,
    clauses,
    instantiations,
    kvars_in,
    kvars_of,
    normalize,
)
from .errors import ShapeMismatch, StructuralError
from .logic import RefCtx, base_of, conj, getsort, subst_parallel
from .oracle import Oracle, Query
from .printer import print_type
from .subtyping import NameSupply, subtype
from .syntax import (
    BaseType,
    BoolBase,
    Exists,
    FnSig,
    Indexed,
    IntBase,
    KApp,
    KVarDecl,
    LocCtx,
    Ref,
    RefExpr,
    Sort,
    StrongPtr,
    Type,
    Uninit,
    Var,
    VecBase,
)


class KVarSupply:
    """Deterministic source of unknown-predicate names (k0, k1, ...)."""

    def __init__(self):
        self.count = 0

    def fresh(self, params: Tuple[Tuple[str, Sort], ...]) -> KVarDecl:
        name = f"k{self.count}"
        self.count += 1
        return KVarDecl(name, params)


def scope_params(ctx: RefCtx) -> Tuple[Tuple[str, Sort], ...]:
    """Int- and bool-sorted binders of the context, in order.  Location
    binders are excluded: no qualifier constrains them and carrying them
    would leak local locations through inferred types."""
    return tuple(
        (b.name, b.sort) for b in ctx.binds() if b.sort in (Sort.INT, Sort.BOOL)
    )


def fresh_kvar_type(
    kvars: KVarSupply, names: NameSupply, ctx: RefCtx, base: BaseType
) -> Exists:
    """The most general refinement of `base` expressible in the current
    scope: an existential whose body is one unknown-predicate application
    over the value symbol and the in-scope binders."""
    nu = names.fresh("v")
    params = ((nu, getsort(base)),) + scope_params(ctx)
    kvar = kvars.fresh(params)
    return Exists(nu, base, KApp(kvar, tuple(Var(n) for n, _ in params)))


def is_template(t: Type) -> bool:
    return isinstance(t, Exists) and isinstance(t.pred, KApp)


def _bases_compatible(b1: BaseType, b2: BaseType) -> bool:
    if isinstance(b1, IntBase) and isinstance(b2, IntBase):
        return True
    if isinstance(b1, BoolBase) and isinstance(b2, BoolBase):
        return True
    return isinstance(b1, VecBase) and isinstance(b2, VecBase)


# ---------------------------------------------------------------------------
# Join of branch results

# Emission site tags for join constraints: under the then-branch hypothesis,
# the else-branch hypothesis, or neither.
THEN, ELSE, PLAIN = "then", "else", "plain"
JoinOut = List[Tuple[str, Constraint]]


def join_types(
    ctx: RefCtx,
    kvars: KVarSupply,
    names: NameSupply,
    t1: Type,
    t2: Type,
    prov: Provenance,
) -> Tuple[Type, JoinOut]:
    """Common supertype of two branch results.  Existing unknown-predicate
    templates are reused (the other side flows into them); otherwise a fresh
    template is created and both sides flow in.  Mutable-reference pointees
    are unified invariantly under no branch hypothesis."""
    if t1 == t2:
        return t1, []

    match (t1, t2):
        case (Ref("mut", p1), Ref("mut", p2)):
            joined = _join_shape(ctx, kvars, names, p1, p2)
            out: JoinOut = [
                (PLAIN, subtype(ctx, t1, Ref("mut", joined), prov, names)),
                (PLAIN, subtype(ctx, t2, Ref("mut", joined), prov, names)),
            ]
            return Ref("mut", joined), out
        case (Ref("shr", p1), Ref("shr", p2)):
            joined = _join_shape(ctx, kvars, names, p1, p2)
            return Ref("shr", joined), [
                (THEN, subtype(ctx, t1, Ref("shr", joined), prov, names)),
                (ELSE, subtype(ctx, t2, Ref("shr", joined), prov, names)),
            ]

    if is_template(t1) and _compatible_with_template(t1, t2):
        return t1, [(ELSE, subtype(ctx, t2, t1, prov, names))]
    if is_template(t2) and _compatible_with_template(t2, t1):
        return t2, [(THEN, subtype(ctx, t1, t2, prov, names))]

    b1, b2 = base_of(t1), base_of(t2)
    if b1 is not None and b2 is not None and _bases_compatible(b1, b2):
        base = _join_base(ctx, kvars, names, b1, b2)
        joined = fresh_kvar_type(kvars, names, ctx, base)
        return joined, [
            (THEN, subtype(ctx, t1, joined, prov, names)),
            (ELSE, subtype(ctx, t2, joined, prov, names)),
        ]

    raise StructuralError(
        f"branches produce incompatible types: {print_type(t1)} vs {print_type(t2)}"
    )


def _compatible_with_template(template: Type, other: Type) -> bool:
    ob = base_of(other)
    tb = base_of(template)
    return ob is not None and tb is not None and _bases_compatible(tb, ob)


def _join_base(ctx, kvars, names, b1: BaseType, b2: BaseType) -> BaseType:
    if isinstance(b1, VecBase) and isinstance(b2, VecBase):
        elem = _join_shape(ctx, kvars, names, b1.elem, b2.elem)
        return VecBase(elem)
    return b1


def _join_shape(ctx, kvars, names, t1: Type, t2: Type) -> Type:
    """Shape of the join: identical parts kept, differing refined parts
    replaced by fresh templates; constraints are emitted by the caller via
    subtyping against the result."""
    if t1 == t2:
        return t1
    b1, b2 = base_of(t1), base_of(t2)
    if b1 is not None and b2 is not None and _bases_compatible(b1, b2):
        return fresh_kvar_type(kvars, names, ctx, _join_base(ctx, kvars, names, b1, b2))
    match (t1, t2):
        case (Ref(m1, p1), Ref(m2, p2)) if m1 == m2:
            return Ref(m1, _join_shape(ctx, kvars, names, p1, p2))
    raise StructuralError(
        f"branches produce incompatible types: {print_type(t1)} vs {print_type(t2)}"
    )


def join_locctx(
    ctx: RefCtx,
    kvars: KVarSupply,
    names: NameSupply,
    l1: LocCtx,
    l2: LocCtx,
    prov: Provenance,
) -> Tuple[LocCtx, JoinOut]:
    """Join branch location contexts over their common domain; bindings
    present on only one side are dropped (context weakening)."""
    items = []
    out: JoinOut = []
    for loc, t1 in l1:
        t2 = l2.lookup(loc)
        if t2 is None:
            continue
        joined, emissions = join_types(ctx, kvars, names, t1, t2, prov)
        items.append((loc, joined))
        out.extend(emissions)
    return LocCtx(tuple(items)), out


# ---------------------------------------------------------------------------
# Rec-signature templates (loop invariants)

@dataclass
class RecTemplate:
    sig: FnSig
    fresh_params: Tuple[Tuple[str, Sort], ...]
    kvar: KVarDecl


def infer_rec_signature(
    ctx: RefCtx,
    kvars: KVarSupply,
    names: NameSupply,
    entry_locs: LocCtx,
    site_locs: Sequence[LocCtx],
    arg_count: int,
    ret_shape: Optional[Type],
) -> RecTemplate:
    """Unify the entry context with every recursive-call context: matching
    parts are preserved, mismatching indices become fresh universally bound
    refinement variables related by one unknown predicate over those
    variables plus the outer scope."""
    fresh_params: List[Tuple[str, Sort]] = []

    def fresh_index_var() -> RefExpr:
        name = names.fresh("j")
        fresh_params.append((name, Sort.INT))
        return Var(name)

    # phase 1: decide the generalized shape, introducing index variables
    def gen(entry_t: Type, others: List[Type]) -> Type:
        if all(o == entry_t for o in others):
            return entry_t
        eb = base_of(entry_t)
        obs = [base_of(o) for o in others]
        if eb is not None and all(
            ob is not None and _bases_compatible(eb, ob) for ob in obs
        ):
            base = eb
            if isinstance(eb, VecBase):
                elems = [ob.elem for ob in obs]  # type: ignore[union-attr]
                base = VecBase(gen(eb.elem, elems))
            idxes = [entry_t] + others
            plain = [t.idx for t in idxes if isinstance(t, Indexed)]
            if len(plain) == len(idxes) and all(i == plain[0] for i in plain):
                return Indexed(base, plain[0])
            if len(plain) == len(idxes):
                return Indexed(base, fresh_index_var())
            # some side is existential or a template: generalize the predicate
            return _TemplateSlot(base)
        match entry_t:
            case Ref(mode, pointee):
                pts = []
                for o in others:
                    if not isinstance(o, Ref) or o.mode != mode:
                        raise ShapeMismatch(
                            f"loop contexts disagree: {print_type(entry_t)} vs "
                            f"{print_type(o)}"
                        )
                    pts.append(o.pointee)
                return Ref(mode, gen(pointee, pts))
            case StrongPtr(_) | Uninit(_) | FnSig():
                pass
        raise ShapeMismatch(
            "loop contexts disagree on structure: "
            + ", ".join(print_type(t) for t in [entry_t] + others)
        )

    shaped: List[Tuple] = []
    for loc, entry_t in entry_locs:
        others = []
        for site in site_locs:
            t = site.lookup(loc)
            if t is None:
                raise ShapeMismatch(f"recursive call dropped location {loc}")
            others.append(t)
        shaped.append((loc, gen(entry_t, others)))

    # phase 2: materialize templates now that all fresh vars are known
    body_ctx = ctx
    for n, s in fresh_params:
        body_ctx = body_ctx.bind(n, s)

    def fill(t):
        if isinstance(t, _TemplateSlot):
            return fresh_kvar_type(kvars, names, body_ctx, fill_base(t.base))
        if isinstance(t, Indexed):
            return Indexed(fill_base(t.base), t.idx)
        if isinstance(t, Ref):
            return Ref(t.mode, fill(t.pointee))
        return t

    def fill_base(b):
        if isinstance(b, VecBase):
            return VecBase(fill(b.elem))
        return b

    in_locs = LocCtx(tuple((loc, fill(t)) for loc, t in shaped))

    params = tuple(fresh_params) + scope_params(ctx)
    kvar = kvars.fresh(params)
    requires = KApp(kvar, tuple(Var(n) for n, _ in params))

    if ret_shape is None:
        ret: Type = Uninit(1)
    else:
        rb = base_of(ret_shape)
        ret = (
            fresh_kvar_type(kvars, names, body_ctx, rb) if rb is not None else ret_shape
        )

    sig = FnSig(
        refparams=tuple(fresh_params),
        requires=requires,
        in_locs=in_locs,
        args=tuple(Uninit(1) for _ in range(arg_count)),
        ret=ret,
        out_locs=LocCtx(),
    )
    return RecTemplate(sig, tuple(fresh_params), kvar)


@dataclass(frozen=True)
class _TemplateSlot(Type):
    base: BaseType


# ---------------------------------------------------------------------------
# Liquid fixpoint solving

@dataclass
class SolveResult:
    status: str  # "sat" | "unsat" | "unknown"
    solution: Solution
    failed_clause: Optional[Clause] = None
    reason: str = ""
    deletions: int = 0
    sweeps: int = 0
    # the oracle's counter-model for an unsat concrete clause, when found
    counterexample: Optional[Dict[str, Union[int, bool]]] = None

    @property
    def ok(self) -> bool:
        return self.status == "sat"


def solve(
    constraint: Constraint, quals: Sequence[Qualifier], oracle: Oracle
) -> SolveResult:
    """Greatest-fixpoint predicate abstraction: start every unknown at the
    conjunction of all qualifier instantiations over its parameters, then
    delete qualifiers a clause fails to establish until all unknown-headed
    clauses validate; finally check the concrete-headed clauses."""
    norm = normalize(constraint)
    cls = clauses(norm)
    kvars = kvars_of(norm)

    assignment: Dict[str, List[RefExpr]] = {
        k.name: list(instantiations(k, quals)) for k in kvars
    }
    decls = {k.name: k for k in kvars}
    solution = Solution()
    for k in kvars:
        solution.assign(k, conj(assignment[k.name]))

    def expand(e: RefExpr) -> RefExpr:
        return apply_solution_expr(e, solution)

    kvar_clauses = [c for c in cls if c.is_kvar_head()]
    concrete_clauses = [c for c in cls if not c.is_kvar_head()]

    # clauses to revisit when a kvar's assignment shrinks
    dependents: Dict[str, List[Clause]] = {k.name: [] for k in kvars}
    for c in kvar_clauses:
        for name in kvars_in(c.hyps):
            dependents[name].append(c)

    # termination: every re-enqueue follows at least one deletion, and the
    # total deletion budget is the number of initial instantiations
    budget = sum(len(v) for v in assignment.values())
    deletions = 0
    sweeps = 0
    worklist = deque(kvar_clauses)
    queued = {c.cid for c in kvar_clauses}
    while worklist:
        clause = worklist.popleft()
        queued.discard(clause.cid)
        sweeps += 1
        assert sweeps <= len(kvar_clauses) * (budget + 1), "fixpoint did not descend"
        head = clause.head
        assert isinstance(head, KApp)
        kname = head.kvar.name
        candidates = assignment[kname]
        if not candidates:
            continue
        hyps = tuple(expand(h) for h in clause.hyps)
        mapping = {
            pname: arg for (pname, _), arg in zip(head.kvar.params, head.args)
        }
        goals = [subst_parallel(cand, mapping) for cand in candidates]
        verdicts = oracle.valid_many(clause.binders, hyps, goals, trusted=True)
        kept = [c for c, v in zip(candidates, verdicts) if v.is_valid]
        if len(kept) != len(candidates):
            deletions += len(candidates) - len(kept)
            assignment[kname] = kept
            solution.assign(decls[kname], conj(kept))
            for dep in dependents[kname]:
                if dep.cid not in queued:
                    queued.add(dep.cid)
                    worklist.append(dep)

    for clause in concrete_clauses:
        hyps = tuple(expand(h) for h in clause.hyps)
        verdict = oracle.valid(Query(clause.binders, hyps, clause.head))
        if verdict.is_invalid:
            return SolveResult(
                "unsat",
                solution,
                failed_clause=clause,
                deletions=deletions,
                sweeps=sweeps,
                counterexample=verdict.model,
            )
        if verdict.is_unknown:
            return SolveResult(
                "unknown", solution, failed_clause=clause, reason=verdict.reason
            )

    # re-check the solved clauses clause-by-clause under the final assignment
    for clause in kvar_clauses:
        hyps = tuple(expand(h) for h in clause.hyps)
        goal = expand(clause.head)
        verdict = oracle.valid_many(clause.binders, hyps, [goal], trusted=True)[0]
        if not verdict.is_valid:
            return SolveResult(
                "unknown" if verdict.is_unknown else "unsat",
                solution,
                failed_clause=clause,
                reason="post-solve recheck failed",
            )

    return SolveResult("sat", solution, deletions=deletions, sweeps=sweeps)
