"""Shape inference (unknown-predicate templates at joins, borrows, and
unannotated inner rec functions) and the liquid fixpoint solver."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .constraints import (
    META,
    NU,
    Candidate,
    Clause,
    Constraint,
    Provenance,
    Qualifier,
    Solution,
    apply_solution_expr,
    clauses,
    instance,
    instantiations,
    kvars_in,
    kvars_of,
    normalize,
)
from .errors import ShapeMismatch, StructuralError
from .logic import RefCtx, base_of, conj, getsort, subst_parallel
from .oracle import (
    Cubes,
    LinForm,
    Oracle,
    OracleError,
    Query,
    all_of,
    cmp_row,
    dnf,
    linear_form,
)
from .printer import print_type
from .subtyping import NameSupply, bases_compatible, subtype
from .syntax import (
    BaseType,
    Cmp,
    Eq,
    Exists,
    FnSig,
    Indexed,
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
    templates are reused (the other side flows into them); otherwise both
    sides flow into the shape `_join_shape` builds, under their branch
    hypotheses, except that a mutable reference's pointee is unified
    invariantly and so under neither."""
    if t1 == t2:
        return t1, []
    if is_template(t1) and _compatible_with_template(t1, t2):
        return t1, [(ELSE, subtype(t2, t1, prov, names))]
    if is_template(t2) and _compatible_with_template(t2, t1):
        return t2, [(THEN, subtype(t1, t2, prov, names))]
    joined = _join_shape(ctx, kvars, names, t1, t2)
    mutable = isinstance(joined, Ref) and joined.mode == "mut"
    return joined, [
        (PLAIN if mutable else THEN, subtype(t1, joined, prov, names)),
        (PLAIN if mutable else ELSE, subtype(t2, joined, prov, names)),
    ]


def _compatible_with_template(template: Type, other: Type) -> bool:
    ob = base_of(other)
    tb = base_of(template)
    return ob is not None and tb is not None and bases_compatible(tb, ob)


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
    if b1 is not None and b2 is not None and bases_compatible(b1, b2):
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

def infer_rec_signature(
    ctx: RefCtx,
    kvars: KVarSupply,
    names: NameSupply,
    entry_locs: LocCtx,
    site_locs: Sequence[LocCtx],
    arg_count: int,
    ret_shape: Optional[Type],
) -> FnSig:
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
            ob is not None and bases_compatible(eb, ob) for ob in obs
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

    return FnSig(
        refparams=tuple(fresh_params),
        requires=requires,
        in_locs=in_locs,
        args=tuple(Uninit(1) for _ in range(arg_count)),
        ret=ret,
        out_locs=LocCtx(),
    )


@dataclass(frozen=True)
class _TemplateSlot(Type):
    base: BaseType


# ---------------------------------------------------------------------------
# Liquid fixpoint solving over linear rows
#
# A kvar's candidates are (qualifier, value parameter, metavariable
# parameter) triples, in `instantiations` order.  Each is turned once into
# one positive literal over the kvar's parameters, whose row, terms .
# params + k <= 0, is the one the oracle's `cmp_row` builds:
#   ("le", terms, k)    a comparison l op r: the row of l op r
#   ("eq", terms, k)    an integer equality l = r: the row of l <= r, and
#                       l = r holds when row <= 0 and -row <= 0
#   ("term", e)         any other formula, or a comparison whose row
#                       mentions a product or a non-integer parameter:
#                       substituted and expanded on use
# An integer qualifier is compiled once, on first use, into such a literal
# over the reserved names `NU` and `META` (`_template_row`), and a
# candidate's literal is that template with the two names replaced by its
# parameters.  A template that is a term, or whose row mentions any other
# name, is not compiled: its candidates build their term and go through
# `_literal`.  A candidate's term is built only for the survivors, which
# `Solution` needs.
#
# `terms` is a sorted tuple of (parameter, coefficient) pairs, and an
# equality's first coefficient is positive, so a literal is its own
# canonical key: `a <= b` and `b >= a` give one literal, and so do
# `a = b + 1` and `b = a - 1`.  The fixpoint decides each distinct literal
# of a kvar once and deletes all its candidates with it.  A row fails
# exactly when -row + 1 <= 0.  A kvar application maps each parameter to
# its argument, an integer argument as its linear form; substituting a
# literal splices the argument forms into its row, and evaluating it at a
# point evaluates the forms there (`_App.holds_at`).


def _row_literal(kind: str, terms: Iterable[Tuple[str, int]], k: int) -> Tuple:
    """A row literal with its terms sorted and, for an equality, the sign
    that makes its first coefficient positive."""
    terms = sorted(terms)
    if kind == "eq" and terms and terms[0][1] < 0:
        terms = [(p, -c) for p, c in terms]
        k = -k
    return (kind, tuple(terms), k)


def _literal(cand: RefExpr, sorts: Dict[str, Sort]) -> Tuple:
    """One candidate term as a literal over its kvar's parameters (`sorts`)."""
    match cand:
        case Cmp(op, l, r):
            kind = "le"
        case Eq(l, r):
            kind, op = "eq", "<="
        case _:
            return ("term", cand)
    prods: Dict[RefExpr, str] = {}
    try:
        coeffs, k = cmp_row(op, l, r, prods)
    except OracleError:
        return ("term", cand)
    if prods or any(sorts.get(p) is not Sort.INT for p in coeffs):
        return ("term", cand)
    return _row_literal(kind, coeffs.items(), k)


@lru_cache(maxsize=None)
def _template_row(template: RefExpr) -> Optional[Tuple]:
    """An integer qualifier's template as a row literal over `NU` and
    `META`, or None when it is not one."""
    lit = _literal(template, {NU: Sort.INT, META: Sort.INT})
    return None if lit[0] == "term" else lit


def _candidate_literals(
    cands: Sequence[Candidate], sorts: Dict[str, Sort]
) -> Iterator[Tuple]:
    """The literal of each candidate of a kvar with parameters `sorts`."""
    templates: Dict[int, Optional[Tuple]] = {}  # by the qualifier's id
    for cand in cands:
        q, nu, meta = cand
        if id(q) not in templates:
            int_sorted = q.nu_sort is Sort.INT
            templates[id(q)] = _template_row(q.template) if int_sorted else None
        template = templates[id(q)]
        if template is None:
            yield _literal(instance(cand), sorts)
            continue
        kind, terms, k = template
        names = {NU: nu, META: meta}
        yield _row_literal(kind, [(names[p], c) for p, c in terms], k)


class _App:
    """One kvar application in a clause: each parameter mapped to its
    argument, and each integer argument linearized once."""

    __slots__ = ("kvar", "args", "lins", "sorts", "prods")

    def __init__(self, app: KApp, sorts: Dict[str, Sort], prods):
        self.kvar = app.kvar.name
        self.args = {p: a for (p, _), a in zip(app.kvar.params, app.args)}
        self.lins = {
            p: linear_form(a, prods)
            for (p, sort), a in zip(app.kvar.params, app.args)
            if sort is Sort.INT
        }
        self.sorts = sorts
        self.prods = prods

    def _row(self, lit: Tuple, sign: int, extra: int) -> LinForm:
        """sign * (the literal's row) + extra, with the arguments' forms
        spliced in."""
        _, terms, k = lit
        lins = self.lins
        coeffs: Dict[str, int] = {}
        const = sign * k + extra
        for p, c in terms:
            pcoeffs, pconst = lins[p]
            factor = sign * c
            const += factor * pconst
            for v, x in pcoeffs.items():
                total = coeffs.get(v, 0) + factor * x
                if total:
                    coeffs[v] = total
                else:
                    del coeffs[v]
        return coeffs, const

    def cubes(self, lit: Tuple, positive: bool) -> Cubes:
        """The DNF of the literal substituted here, or of its negation."""
        kind = lit[0]
        if kind == "le":
            row = self._row(lit, 1, 0) if positive else self._row(lit, -1, 1)
            return [[("le", row)]]
        if kind == "eq":
            if positive:
                return [[("le", self._row(lit, 1, 0)), ("le", self._row(lit, -1, 0))]]
            return [[("le", self._row(lit, 1, 1))], [("le", self._row(lit, -1, 1))]]
        return dnf(subst_parallel(lit[1], self.args), positive, self.sorts, self.prods)

    def negated(self, lit: Tuple) -> Cubes:
        return self.cubes(lit, False)

    def holds_at(self, lit: Tuple, point: Dict[str, int]) -> bool:
        """Whether the literal substituted here holds at `point`, where an
        unbound variable reads as 0.  A term literal is not evaluated, and
        holds."""
        kind = lit[0]
        if kind == "term":
            return True
        _, terms, row = lit
        for p, c in terms:
            coeffs, const = self.lins[p]
            for v, x in coeffs.items():
                const += x * point.get(v, 0)
            row += c * const
        return row <= 0 if kind == "le" else row == 0


class _Candidates:
    """The fixpoint's state: each kvar's kept candidates, and its distinct
    literals with the index of each candidate's literal among them, built
    when a clause first needs that kvar.  Deleting a literal deletes every
    candidate that has it."""

    def __init__(self, kvars: Sequence[KVarDecl], quals: Sequence[Qualifier]):
        self.params = {k.name: dict(k.params) for k in kvars}
        self.kept: Dict[str, List[Candidate]] = {
            k.name: instantiations(k, quals) for k in kvars
        }
        self._literals: Dict[str, Tuple[List[Tuple], List[int]]] = {}

    def _compiled(self, name: str) -> Tuple[List[Tuple], List[int]]:
        entry = self._literals.get(name)
        if entry is None:
            index: Dict[Tuple, int] = {}
            owner = [
                index.setdefault(lit, len(index))
                for lit in _candidate_literals(self.kept[name], self.params[name])
            ]
            entry = self._literals[name] = (list(index), owner)
        return entry

    def literals(self, name: str) -> List[Tuple]:
        """The kvar's distinct literals, in the order of their first
        candidate."""
        return self._compiled(name)[0]

    def keep(self, name: str, valid: Sequence[bool]) -> int:
        """Keep the candidates whose literal is valid, by the literals'
        order; return how many candidates were deleted."""
        lits, owner = self._compiled(name)
        renumber: Dict[int, int] = {}
        for i, ok in enumerate(valid):
            if ok:
                renumber[i] = len(renumber)
        cands: List[Candidate] = []
        owners: List[int] = []
        for cand, o in zip(self.kept[name], owner):
            if o in renumber:
                cands.append(cand)
                owners.append(renumber[o])
        self.kept[name] = cands
        self._literals[name] = ([lits[i] for i in renumber], owners)
        return len(owner) - len(owners)

    def terms(self, name: str) -> List[RefExpr]:
        """The terms of the kvar's kept candidates."""
        return [instance(c) for c in self.kept[name]]


class _ClauseRows:
    """A clause linearized once: the cubes of each concrete hypothesis
    (expanded on first use), an `_App` per kvar application, and the head,
    an `_App` when it is a kvar application and the formula otherwise."""

    def __init__(self, clause: Clause):
        sorts = dict(clause.binders)
        prods: Dict[RefExpr, str] = {}
        self.sorts = sorts
        self.prods = prods
        self.hyps: List = [
            _App(h, sorts, prods) if isinstance(h, KApp) else h for h in clause.hyps
        ]
        head = clause.head
        self.head = _App(head, sorts, prods) if isinstance(head, KApp) else head

    def hyp_cubes(self, cands: _Candidates) -> Iterator[Cubes]:
        """The DNF of each hypothesis under the current candidates; a kvar
        application's is the conjunction of its kept candidates'."""
        for i, part in enumerate(self.hyps):
            if isinstance(part, _App):
                lits = cands.literals(part.kvar)
                yield all_of(part.cubes(lit, True) for lit in lits)
                continue
            if isinstance(part, RefExpr):
                part = dnf(part, True, self.sorts, self.prods)
                self.hyps[i] = part
            yield part

    def negated(self, goal: RefExpr) -> Cubes:
        """The DNF of a concrete goal's negation."""
        return dnf(goal, False, self.sorts, self.prods)


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
    clauses validate; finally check the concrete-headed clauses.  The
    fixpoint validates every unknown-headed clause under the final
    assignment by construction, so nothing is rechecked.

    Every clause is linearized once, and a kvar's candidates once, when a
    clause first needs that kvar.  A sweep asks `Oracle.valid_rows` about
    each distinct literal of the head kvar once, under the spliced rows of
    the hypothesis kvars' distinct literals; a literal false at a point the
    oracle keeps for a hypothesis cube is deleted with no splice of its
    own.  Each concrete-headed clause is asked the same way, under the
    final kept candidates.  Only a concrete clause the rows do not prove is
    built as a term and decided by `Oracle.valid`, which gives the verdict,
    reason and counter-model."""
    norm = normalize(constraint)
    cls = clauses(norm)
    kvars = kvars_of(norm)
    cands = _Candidates(kvars, quals)
    kvar_clauses = [c for c in cls if c.is_kvar_head()]
    compiled = {c.cid: _ClauseRows(c) for c in cls}

    # clauses to revisit when a kvar's assignment shrinks
    dependents: Dict[str, List[Clause]] = {k.name: [] for k in kvars}
    for c in kvar_clauses:
        for name in kvars_in(c.hyps):
            dependents[name].append(c)

    # termination: every re-enqueue follows at least one deletion, and the
    # total deletion budget is the number of initial candidates
    budget = sum(len(v) for v in cands.kept.values())
    deletions = 0
    sweeps = 0
    worklist = deque(kvar_clauses)
    queued = {c.cid for c in kvar_clauses}
    while worklist:
        clause = worklist.popleft()
        queued.discard(clause.cid)
        sweeps += 1
        assert sweeps <= len(kvar_clauses) * (budget + 1), "fixpoint did not descend"
        rows = compiled[clause.cid]
        head = rows.head
        if not cands.kept[head.kvar]:
            continue
        verdicts = oracle.valid_rows(
            rows.hyp_cubes(cands), cands.literals(head.kvar), head.negated, head.holds_at
        )
        valid = [v.is_valid for v in verdicts]
        if not all(valid):
            deletions += cands.keep(head.kvar, valid)
            for dep in dependents[head.kvar]:
                if dep.cid not in queued:
                    queued.add(dep.cid)
                    worklist.append(dep)

    solution = Solution()
    for k in kvars:
        solution.assign(k, conj(cands.terms(k.name)))

    for clause in cls:
        if clause.is_kvar_head():
            continue
        rows = compiled[clause.cid]
        verdict = oracle.valid_rows(
            rows.hyp_cubes(cands), [clause.head], rows.negated
        )[0]
        if verdict.is_valid:
            continue
        hyps = tuple(apply_solution_expr(h, solution) for h in clause.hyps)
        verdict = oracle.valid(Query(clause.binders, hyps, clause.head))
        if not verdict.is_valid:
            return SolveResult(
                "unsat" if verdict.is_invalid else "unknown",
                solution,
                failed_clause=clause,
                reason=verdict.reason,
                deletions=deletions,
                sweeps=sweeps,
                counterexample=verdict.model,
            )

    return SolveResult("sat", solution, deletions=deletions, sweeps=sweeps)
