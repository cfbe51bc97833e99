"""The expression typing engine.

Synthesizes types while threading the flow-sensitive location context,
emitting Horn constraints at the subtyping seams (call arguments,
assignments, declared-signature boundaries, and join points).  Assumptions
are split into atoms when assumed, and each obligation is closed in clause
form where it is emitted: every part of its normal form goes under the
context's binders and atoms, and an empty one is dropped unclosed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .builtins import BUILTIN_SIGS
from .constraints import (
    Clause,
    Conj,
    Constraint,
    Head,
    Provenance,
    Qualifier,
    Solution,
    TRIVIAL,
    atoms,
    clauses as constraint_clauses,
    close,
    default_qualifiers,
    normalize,
)
from .errors import (
    ArityMismatch,
    AssignThroughShared,
    CheckError,
    DerefNonPointer,
    DerefUninit,
    EscapeError,
    InstError,
    StructuralError,
    UnboundVariable,
)
from .infer import (
    KVarSupply,
    fresh_kvar_type,
    infer_rec_signature,
    join_locctx,
    join_types,
    solve,
)
from .logic import (
    RefCtx,
    SortError,
    as_loc,
    base_of,
    fold_constants,
    free_vars,
    getsort,
    sortcheck,
    subst,
    subst_parallel,
)
from .oracle import Oracle
from .printer import print_loc, print_type, print_value
from .subtyping import NameSupply, ctx_include, subtype
from .syntax import (
    AbstractLoc,
    Assign,
    BaseType,
    BinArith,
    BinBool,
    BoolBase,
    BoolConst,
    Cmp,
    BoolLit,
    BorrowMut,
    BorrowShr,
    BorrowStrong,
    Call,
    Deref,
    Eq,
    Exists,
    Expr,
    FnDecl,
    FnSig,
    If,
    Indexed,
    IntBase,
    IntConst,
    IntLit,
    Let,
    LetNew,
    LocCtx,
    Not,
    Place,
    Poison,
    Program,
    PVar,
    RecFn,
    Ref,
    RefExpr,
    Sort,
    Span,
    StrongPtr,
    TRUE,
    Type,
    Uninit,
    Unpack,
    Val,
    Value,
    Var,
    VarRef,
    VecBase,
    VecIndexMut,
    VecNew,
    VecPush,
    is_aval,
)
from .wellformed import ValCtx, WfError, wf_locctx, wf_refctx, wf_type, wf_valctx


@dataclass(frozen=True)
class _Hole(Type):
    """Placeholder for a type the shape pass has not discovered yet."""


@dataclass(frozen=True, eq=False)
class _ProbeSig(Type):
    """Provisional signature bound to an unannotated rec function during
    the shape pass: a recursive call through it appends its location
    context, restricted to `domain`, to `sites`.  Two probes are equal only
    when they are the same probe."""

    domain: Tuple[AbstractLoc, ...]
    arity: int
    sites: List[LocCtx]


@dataclass
class Diagnostic:
    rule: str
    message: str
    span: Optional[Span] = None
    clause_id: Optional[int] = None
    note: str = ""

    def render(self, path: str = "<input>") -> str:
        at = f"{path}:{self.span}" if self.span else path
        clause = f" [clause {self.clause_id}]" if self.clause_id is not None else ""
        note = f"; {self.note}" if self.note else ""
        return f"{at}: error: {self.rule}: {self.message}{clause}{note}"


@dataclass
class UnitReport:
    name: str
    constraint: Constraint
    clauses: List[Clause]
    status: str  # "verified" | "rejected" | "unknown" | "error"
    solution: Optional[Solution] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)
    result_type: Optional[Type] = None
    final_ctx: Optional[RefCtx] = None


@dataclass
class Report:
    units: List[UnitReport]

    @property
    def ok(self) -> bool:
        return all(u.status == "verified" for u in self.units)

    @property
    def blocked_on_oracle(self) -> bool:
        return any(u.status == "unknown" for u in self.units)

    @property
    def exit_code(self) -> int:
        """The exit code of the report's program (see `cli`): 3 if some
        unit is undecided, else 1 if some unit is not verified, else 0."""
        if self.blocked_on_oracle:
            return 3
        return 0 if self.ok else 1

    def unit(self, name: str) -> UnitReport:
        for u in self.units:
            if u.name == name:
                return u
        raise KeyError(name)

    def diagnostics(self) -> List[Diagnostic]:
        out = []
        for u in self.units:
            out.extend(u.diagnostics)
        return out


def _fold_index(t: Type) -> Type:
    if isinstance(t, Indexed):
        return Indexed(t.base, fold_constants(t.idx))
    return t


# ---------------------------------------------------------------------------
# The checker

class Checker:
    """Checks one unit: the refinement, value and location contexts of its
    judgment, the obligations it has emitted, and the typing rules over
    them."""

    def __init__(
        self,
        globals_ctx: ValCtx,
        kvars: KVarSupply,
        debug_wf: bool = False,
    ):
        self.ctx = RefCtx()
        self.vals = globals_ctx
        self.locs = LocCtx()
        self.kvars = kvars
        self.names = NameSupply()
        self.emitted: List[Constraint] = []
        self.debug_wf = debug_wf
        self.shape_mode = False

    # -- context bookkeeping -------------------------------------------------

    def snapshot(self):
        return (self.ctx, self.vals, self.locs)

    def restore(self, snap) -> None:
        self.ctx, self.vals, self.locs = snap

    def assume(self, pred: RefExpr) -> None:
        """Assume `pred` in the refinement context, as its atoms."""
        for atom in atoms(pred):
            self.ctx = self.ctx.assume(atom)

    def emit(self, c: Constraint) -> None:
        """Emit the clauses of `c`, each closed under the binders and atoms
        of the current context.  An obligation with nothing to prove is not
        built: `subtype` and `ctx_include` give `TRIVIAL` for it, and any
        empty conjunction returns here before it is normalized.  One that
        normalizes to nothing is dropped before the context is read."""
        if self.shape_mode or c == TRIVIAL:
            return
        c = normalize(c)
        if c == TRIVIAL:
            return
        binders = tuple((b.name, b.sort) for b in self.ctx.binds())
        hyps = self.ctx.assumptions()
        parts = c.parts if isinstance(c, Conj) else (c,)
        self.emitted.extend(close(binders, hyps, part) for part in parts)

    def require(self, have, want, prov: Provenance) -> None:
        """Emit that `have` is a subtype of `want`, or that location context
        `have` includes `want`; a structural mismatch raises at the
        provenance's span.  In the shape pass a hole relates to anything."""
        if self.shape_mode and (isinstance(have, _Hole) or isinstance(want, _Hole)):
            return
        judge = ctx_include if isinstance(want, LocCtx) else subtype
        self.emit(judge(have, want, prov, self.names))

    def assert_wf(self) -> None:
        if not self.debug_wf or self.shape_mode:
            return
        wf_refctx(self.ctx)
        wf_valctx(self.ctx, self.vals)
        wf_locctx(self.ctx, self.locs)

    def fresh_template(self, base: BaseType) -> Exists:
        return fresh_kvar_type(self.kvars, self.names, self.ctx, base)

    # -- unpacking -----------------------------------------------------------

    def unpack_on_the_fly(self, x: str) -> None:
        """Open an existential binding into a fresh refinement variable and
        an assumption; no-op on non-existential bindings, idempotent."""
        t = self.vals.lookup(x)
        if isinstance(t, Exists):
            self.vals = self.vals.update(x, self.open_existential(t))

    def open_existential(self, t: Type, name: Optional[str] = None) -> Type:
        """Open an existential into refinement variable `name` (by default a
        fresh one named after its binder) and the assumption of its
        predicate; any other type is returned as it is."""
        if not isinstance(t, Exists):
            return t
        if name is None:
            name = self.names.fresh(t.binder)
        self.ctx = self.ctx.bind(name, getsort(t.base))
        self.assume(subst(t.pred, t.binder, Var(name)))
        return Indexed(t.base, Var(name))

    def open_loc(self, loc: AbstractLoc) -> None:
        t = self.locs.lookup(loc)
        if isinstance(t, Exists):
            self.locs = self.locs.update(loc, self.open_existential(t))

    # -- refinement-parameter instantiation ------------------------------------

    def infer_refargs(
        self, sig: FnSig, actual_args: Sequence[Type], span: Optional[Span]
    ) -> List[RefExpr]:
        """First-order syntactic unification of formal types against
        actuals; abstract-location parameters ride the same unifier, and
        parameters that occur only in the input location context are
        resolved against the current flow-sensitive context."""
        params = [n for n, _ in sig.refparams]
        assigned: Dict[str, RefExpr] = {}

        def unify(formal: Type, actual: Type) -> None:
            match (formal, actual):
                case (Indexed(fb, fidx), _):
                    p = fidx.name if isinstance(fidx, Var) else None
                    if p in params and p not in assigned:
                        match actual:
                            case Indexed(_, idx):
                                assigned[p] = idx
                            case Exists():
                                assigned[p] = self.open_existential(actual).idx
                    ab = base_of(actual)
                    if isinstance(fb, VecBase) and isinstance(ab, VecBase):
                        unify(fb.elem, ab.elem)
                case (StrongPtr(AbstractLoc(p)), StrongPtr(loc)) if p in params:
                    assigned.setdefault(p, Var(loc.name))
                case (Ref(m1, fp), Ref(m2, ap)) if m1 == m2:
                    unify(fp, ap)
                case _:
                    pass

        for formal, actual in zip(sig.args, actual_args):
            unify(formal, actual)

        for floc, ftype in sig.in_locs:
            actual_loc: Optional[AbstractLoc] = None
            if floc.name in params:
                got = assigned.get(floc.name)
                if got is None:
                    continue
                actual_loc = as_loc(got)
            else:
                actual_loc = floc
            if actual_loc is None:
                continue
            self.open_loc(actual_loc)
            at = self.locs.lookup(actual_loc)
            if at is not None:
                unify(ftype, at)

        missing = [p for p in params if p not in assigned]
        if missing:
            raise InstError(
                f"cannot instantiate refinement parameter(s) {', '.join(missing)}; "
                "pass explicit refinement arguments at the call site",
                span,
            )
        return [assigned[p] for p in params]

    # -- function checking ---------------------------------------------------

    def check_fn(self, decl: FnDecl) -> Type:
        """Check a declaration against its signature, and return it."""
        self._check_recfn(decl.fn, decl.sig, decl.span)
        return decl.sig

    def check_entry(self, entry: Expr) -> Type:
        """Synthesize the entry expression, and return its type opened."""
        return self.open_existential(self.synth(entry))

    def _check_recfn(self, fn: RecFn, sig: FnSig, span: Optional[Span]) -> None:
        if fn.refparams and tuple(fn.refparams) != tuple(sig.refparams):
            raise CheckError(
                f"rec '{fn.fname}' declares refinement parameters "
                "different from its signature",
                span,
            )
        if len(fn.params) != len(sig.args):
            raise ArityMismatch(
                f"'{fn.fname}' takes {len(fn.params)} argument(s) but its "
                f"signature lists {len(sig.args)}",
                span,
            )
        snap = self.snapshot()
        vals = _bind_rec(self.vals, fn, sig.args, sig, span)
        for name, sort in sig.refparams:
            self.ctx = self.ctx.bind(name, sort)
        self.assume(sig.requires)
        self.vals, self.locs = vals, sig.in_locs
        self.assert_wf()

        prov = Provenance("fn-def", span)
        body_t = self.synth(fn.body)
        self.require(body_t, sig.ret, prov)
        self.require(self.locs, sig.out_locs, prov)
        self.restore(snap)

    # -- expression synthesis -------------------------------------------------

    def synth(self, e: Expr) -> Type:
        """The type of `e`.  The bodies of let, let-new and unpack are tail
        positions: a chain of them is walked in a loop, and the cells of
        its let-new heads are dropped on the way out by one escape check
        for the whole chain (`exit_letnews`)."""
        exits: List[Tuple[LetNew, AbstractLoc]] = []
        while True:
            self.assert_wf()
            match e:
                case Let(x, bound, body, span):
                    if self.vals.lookup(x) is not None:
                        raise CheckError(f"shadowing of '{x}' is not supported", span)
                    t = self.synth(bound)
                    self.vals = self.vals.bind(x, t)
                    e = body
                case LetNew(_, _, body, _):
                    exits.append((e, self.enter_letnew(e)))
                    e = body
                case Unpack(x, a, body, span):
                    self.do_unpack(x, a, span)
                    e = body
                case _:
                    break
        t = self.synth_one(e)
        if exits:
            self.exit_letnews(exits, t)
        return t

    def synth_one(self, e: Expr) -> Type:
        """Synthesis of one expression that is not a let, let-new or unpack."""
        match e:
            case Val(value, span):
                return self.synth_value(value, span)
            case VarRef(name, span):
                t = self.vals.lookup(name)
                if t is None:
                    raise UnboundVariable(f"unbound variable '{name}'", span)
                return t
            case If(_, _, _, _):
                return self.synth_if(e)
            case Call(_, _, _, _, _):
                return self.synth_call(e)
            case Assign(place, rhs, span):
                return self.synth_assign(place, rhs, span)
            case BorrowStrong(place, span):
                t = self.place_type(place, span)
                if not isinstance(t, (StrongPtr, _Hole)):
                    raise StructuralError(
                        f"&strg of a non-strong-pointer ({print_type(t)})", span
                    )
                return t
            case BorrowMut(place, span):
                return self.synth_borrow_mut(place, span)
            case BorrowShr(place, span):
                t = self.place_type(place, span)
                if isinstance(t, Ref):
                    return Ref("shr", t.pointee)
                if isinstance(t, _Hole):
                    return t
                raise StructuralError(
                    f"&shr expects a reference, got {print_type(t)}", span
                )
            case Deref(place, span):
                return self.synth_deref(place, span)
            case _:
                raise CheckError(f"cannot type expression {e!r}")

    def synth_value(self, v: Value, span: Optional[Span]) -> Type:
        match v:
            case BoolLit(b):
                return Indexed(BoolBase(), BoolConst(b))
            case IntLit(z):
                return Indexed(IntBase(), IntConst(z))
            case Poison():
                return Uninit(1)
            case VecNew() | VecPush() | VecIndexMut():
                raise StructuralError(
                    f"{print_value(v)} can only be called, not used as a value", span
                )
            case RecFn():
                return self.infer_inner_rec(v, span)
            case _:
                raise CheckError(f"cannot type value {v!r}", span)

    # -- let new / escape check ----------------------------------------------

    def enter_letnew(self, e: LetNew) -> AbstractLoc:
        """Bind the fresh cell of `e` before its body is synthesized."""
        locvar = e.locvar
        if self.ctx.sort_of(locvar) is not None:
            locvar = self.names.fresh(e.locvar)
        if self.vals.lookup(e.name) is not None:
            raise CheckError(f"shadowing of '{e.name}' is not supported", e.span)
        loc = AbstractLoc(locvar)
        self.ctx = self.ctx.bind(locvar, Sort.LOC)
        self.vals = self.vals.bind(e.name, StrongPtr(loc))
        self.locs = self.locs.bind(loc, Uninit(1))
        return loc

    def exit_letnews(self, exits: List[Tuple[LetNew, AbstractLoc]], t: Type) -> None:
        """Drop the cells of a chain's let-new heads, `exits` outermost
        first, once the chain's body has type `t`.  No location may escape:
        innermost first, each is checked against `t`, then against the
        cells left after its own and the inner ones are dropped.  Those
        checks read counts of the free variables of the cells (each cell's
        own location among them), computed once and decremented as each
        cell is dropped."""
        if not self.shape_mode:
            cell_vars = {loc: {loc.name} | free_vars(typ) for loc, typ in self.locs}
            counts = Counter(name for names in cell_vars.values() for name in names)
            result_vars = free_vars(t)
            for e, loc in reversed(exits):
                counts.subtract(cell_vars.get(loc, ()))
                if loc.name in result_vars:
                    raise EscapeError(
                        f"location '{loc.name}' escapes through the result type "
                        f"{print_type(t)}",
                        e.span,
                    )
                if counts[loc.name] > 0:
                    raise EscapeError(
                        f"location '{loc.name}' escapes through the location context",
                        e.span,
                    )
        self.locs = self.locs.remove(*(loc for _, loc in exits))

    # -- unpack ----------------------------------------------------------------

    def do_unpack(self, x: str, a: str, span: Optional[Span]):
        """Open the type of `x` into refinement variable `a` (a fresh name
        if `a` is bound).  An indexed type `b[e]` is the singleton
        existential `{v. b[v] | v = e}`, so it opens into an alias of `e`."""
        t = self.vals.lookup(x)
        if t is None:
            raise UnboundVariable(f"unbound variable '{x}'", span)
        if not isinstance(t, (Indexed, Exists)):
            raise StructuralError(
                f"unpack of '{x}' at non-base type {print_type(t)}", span
            )
        name = a if self.ctx.sort_of(a) is None else self.names.fresh(a)
        if isinstance(t, Indexed):
            t = Exists(name, t.base, Eq(Var(name), t.idx))
        self.vals = self.vals.update(x, self.open_existential(t, name))

    # -- if / join -------------------------------------------------------------

    def synth_if(self, e: If) -> Type:
        """Synthesize both branches, each under its side of the guard, and
        join them: each side's result and location context flow into the
        joined ones under that side's guard.  In the shape pass the join
        takes the shapes only."""
        cond_t = self.open_existential(self.synth(e.cond))
        if isinstance(cond_t, _Hole):
            cond_t = Indexed(BoolBase(), BoolConst(True))
        if not (isinstance(cond_t, Indexed) and isinstance(cond_t.base, BoolBase)):
            raise StructuralError(
                f"if condition must be boolean, got {print_type(cond_t)}", e.span
            )
        guard = cond_t.idx
        snap = self.snapshot()

        self.assume(guard)
        t1 = self.synth(e.then)
        locs1 = self.locs

        self.restore(snap)
        self.assume(Not(guard))
        t2 = self.synth(e.els)
        locs2 = self.locs

        self.restore(snap)
        prov = Provenance("if-join", e.span)

        if self.shape_mode:
            self.locs = _shape_join_locs(locs1, locs2)
            return _shape_join(t1, t2)

        joined_t, emitted = join_types(
            self.ctx, self.kvars, self.names, t1, t2, guard, prov
        )
        joined_locs, loc_emitted = join_locctx(
            self.ctx, self.kvars, self.names, locs1, locs2, guard, prov
        )
        for c in emitted + loc_emitted:
            self.emit(c)
        self.locs = joined_locs
        return joined_t

    # -- calls -------------------------------------------------------------------

    def synth_call(self, e: Call) -> Type:
        """The callee's result type, instantiated at the call's refinement
        arguments, given or inferred.  Each argument and each input cell
        must be a subtype of its formal; the input cells leave the location
        context, and the output cells join it.  What has nothing to prove
        is not built: a `true` `requires` emits nothing, and an empty input
        or output location context is neither substituted nor rebuilt."""
        # a vec builtin has no type of its own: its signature at a call
        # depends on the call's arguments
        builtin = e.callee.value if isinstance(e.callee, Val) else None
        is_vec = isinstance(builtin, (VecNew, VecPush, VecIndexMut))
        callee_t = None if is_vec else self.synth(e.callee)

        if isinstance(callee_t, _ProbeSig):
            return self._record_probe(callee_t, e)
        if isinstance(callee_t, _Hole):
            return callee_t

        for arg in e.args:
            if not is_aval(arg):
                raise CheckError("call arguments must be variables or values", e.span)
            if isinstance(arg, VarRef):
                self.unpack_on_the_fly(arg.name)
        actual_types = [self.synth(a) for a in e.args]

        if is_vec:
            sig = self._vec_sig(builtin, e, actual_types)
        elif isinstance(callee_t, FnSig):
            sig = callee_t
        else:
            raise StructuralError(
                f"callee is not a function ({print_type(callee_t)})", e.span
            )

        if len(e.args) != len(sig.args):
            raise ArityMismatch(
                f"call passes {len(e.args)} argument(s), signature takes "
                f"{len(sig.args)}",
                e.span,
            )

        if e.ref_args:
            if len(e.ref_args) != len(sig.refparams):
                raise ArityMismatch(
                    f"call passes {len(e.ref_args)} refinement argument(s), "
                    f"signature declares {len(sig.refparams)}",
                    e.span,
                )
            refargs = list(e.ref_args)
        else:
            refargs = self.infer_refargs(sig, actual_types, e.span)

        for arg_expr, (pname, psort) in zip(refargs, sig.refparams):
            try:
                got = sortcheck(self.ctx, arg_expr)
            except SortError as exc:
                raise CheckError(
                    f"refinement argument for '{pname}': {exc}", e.span
                )
            if got != psort:
                raise CheckError(
                    f"refinement argument for '{pname}' has sort {got}, "
                    f"expected {psort}",
                    e.span,
                )

        mapping = {
            pname: arg_expr
            for (pname, _), arg_expr in zip(sig.refparams, refargs)
        }

        def theta(target):
            return subst_parallel(target, mapping)

        prov = Provenance("call", e.span)

        # consume the callee's input locations, framing the rest
        in_locs = theta(sig.in_locs) if sig.in_locs else sig.in_locs
        if not self.shape_mode:
            for loc, want in in_locs:
                self.open_loc(loc)
                have = self.locs.lookup(loc)
                if have is None:
                    raise StructuralError(
                        f"call requires location {print_loc(loc)} which is not owned",
                        e.span,
                    )
                self.require(have, want, prov)
                self.locs = self.locs.remove(loc)
        else:
            for loc, _ in in_locs:
                if self.locs.lookup(loc) is not None:
                    self.locs = self.locs.remove(loc)

        for actual, formal in zip(actual_types, sig.args):
            self.require(actual, theta(formal), prov)

        if sig.requires != TRUE:
            self.emit(Head(theta(sig.requires), Provenance("requires", e.span)))

        # fold each index the call builds, so that a chain of calls rooted
        # at a constant keeps a constant index instead of a growing sum
        if sig.out_locs:
            added = tuple((loc, _fold_index(t)) for loc, t in theta(sig.out_locs))
            self.locs = LocCtx(self.locs.items + added)
        return _fold_index(theta(sig.ret))

    def _record_probe(self, probe: _ProbeSig, e: Call) -> Type:
        if len(e.args) != probe.arity:
            raise ArityMismatch("recursive call arity mismatch", e.span)
        restricted = LocCtx(
            tuple(
                (loc, t)
                for loc, t in self.locs
                if loc in probe.domain
            )
        )
        probe.sites.append(restricted)
        return _Hole()

    def _vec_sig(
        self,
        builtin: Value,
        e: Call,
        actual_types: Sequence[Type],
    ) -> FnSig:
        def elem_template(expected: Optional[BaseType]) -> Type:
            if expected is None:
                raise InstError(
                    "element type of the vector cannot be determined; "
                    "pass a type argument (e.g. call vec_new<int>())",
                    e.span,
                )
            return self.fresh_template(expected)

        explicit: Optional[BaseType] = None
        if e.type_args:
            explicit = base_of(e.type_args[0])

        if isinstance(builtin, VecNew):
            elem = elem_template(explicit)
            return FnSig((), BoolConst(True), LocCtx(), (), Indexed(VecBase(elem), IntConst(0)), LocCtx())

        if isinstance(builtin, VecPush):
            expected = explicit
            if expected is None and actual_types:
                expected = self._peek_vec_elem_base(actual_types[0])
            elem = elem_template(expected)
            # parameter names must not capture variables mentioned by the
            # element template, which refers to the enclosing scope
            np, lp = self.names.fresh("n"), self.names.fresh("l")
            n, l = Var(np), AbstractLoc(lp)
            return FnSig(
                refparams=((np, Sort.INT), (lp, Sort.LOC)),
                requires=BoolConst(True),
                in_locs=LocCtx(((l, Indexed(VecBase(elem), n)),)),
                args=(StrongPtr(l), elem),
                ret=Uninit(1),
                out_locs=LocCtx(((l, Indexed(VecBase(elem), BinArith("+", n, IntConst(1)))),)),
            )

        # vec_index_mut
        expected = explicit
        if expected is None and actual_types:
            t0 = actual_types[0]
            if isinstance(t0, Ref):
                expected = self._peek_elem_base(t0.pointee)
        elem = elem_template(expected)
        ap, bp = self.names.fresh("a"), self.names.fresh("b")
        a, b = Var(ap), Var(bp)
        return FnSig(
            refparams=((ap, Sort.INT), (bp, Sort.INT)),
            requires=BinBool(
                "and", Cmp("<=", IntConst(0), b), Cmp("<", b, a)
            ),
            in_locs=LocCtx(),
            args=(Ref("mut", Indexed(VecBase(elem), a)), Indexed(IntBase(), b)),
            ret=Ref("mut", elem),
            out_locs=LocCtx(),
        )

    def _peek_vec_elem_base(self, t: Type) -> Optional[BaseType]:
        if isinstance(t, StrongPtr):
            self.open_loc(t.loc)
            entry = self.locs.lookup(t.loc)
            if entry is not None:
                return self._peek_elem_base(entry)
        return None

    @staticmethod
    def _peek_elem_base(t: Type) -> Optional[BaseType]:
        b = base_of(t)
        if isinstance(b, VecBase):
            return base_of(b.elem)
        return None

    # -- unannotated inner rec: two-pass inference ------------------------------

    def infer_inner_rec(self, fn: RecFn, span: Optional[Span]) -> Type:
        if fn.refparams:
            raise CheckError(
                f"inner rec '{fn.fname}' declares refinement parameters but "
                "no signature",
                span,
            )
        entry_locs = self.locs
        probe = _ProbeSig(entry_locs.domain(), len(fn.params), [])

        snap = self.snapshot()
        was_shape = self.shape_mode
        self.shape_mode = True
        params = [Uninit(1)] * len(fn.params)
        self.vals = _bind_rec(self.vals, fn, params, probe, span)
        ret_shape: Optional[Type]
        try:
            ret_shape = self.synth(fn.body)
        finally:
            self.shape_mode = was_shape
            self.restore(snap)
        if isinstance(ret_shape, (_Hole, _ProbeSig)):
            ret_shape = None

        sig = infer_rec_signature(
            self.ctx,
            self.kvars,
            self.names,
            entry_locs,
            probe.sites,
            len(fn.params),
            ret_shape,
        )
        self._check_recfn(fn, sig, span)
        # inside an enclosing shape pass, a result not found yet is the
        # enclosing loop's recursive call, and types as it does
        if self.shape_mode and ret_shape is None:
            return _Hole()
        return sig


    # -- assignment ----------------------------------------------------------------

    def synth_assign(
        self, place: Place, rhs: Expr, span: Optional[Span]
    ) -> Type:
        rhs_t = self.synth(rhs)
        pt = self.place_type(place, span)
        match pt:
            case StrongPtr(loc):
                if self.locs.lookup(loc) is None:
                    raise StructuralError(
                        f"assignment to unowned location {print_loc(loc)}", span
                    )
                if isinstance(rhs_t, _Hole):
                    rhs_t = Uninit(1)
                self.locs = self.locs.update(loc, rhs_t)
                return Uninit(1)
            case Ref("mut", pointee):
                self.require(rhs_t, pointee, Provenance("assign", span))
                return Uninit(1)
            case _Hole():
                return pt
            case Ref("shr", _):
                raise AssignThroughShared(
                    "cannot assign through a shared reference", span
                )
            case _:
                raise StructuralError(
                    f"cannot assign through {print_type(pt)}", span
                )

    # -- borrows and dereference ------------------------------------------------

    def synth_borrow_mut(self, place: Place, span: Optional[Span]) -> Type:
        pt = self.place_type(place, span)
        match pt:
            case StrongPtr(loc):
                cur = self.locs.lookup(loc)
                if cur is None:
                    raise StructuralError(
                        f"borrow of unowned location {print_loc(loc)}", span
                    )
                base = base_of(cur)
                if base is None or self.shape_mode:
                    return Ref("mut", cur)
                weakened = self.fresh_template(base)
                self.require(cur, weakened, Provenance("borrow-mut", span))
                self.locs = self.locs.update(loc, weakened)
                return Ref("mut", weakened)
            case Ref("mut", _) | _Hole():
                return pt
            case _:
                raise StructuralError(
                    f"&mut expects a strong pointer or mutable reference, "
                    f"got {print_type(pt)}",
                    span,
                )

    def synth_deref(self, place: Place, span: Optional[Span]) -> Type:
        pt = self.place_type(place, span)
        match pt:
            case Ref(_, pointee):
                return pointee
            case _Hole():
                return pt
            case StrongPtr(loc):
                t = self.locs.lookup(loc)
                if t is None:
                    raise StructuralError(
                        f"dereference of unowned location {print_loc(loc)}", span
                    )
                if isinstance(t, Uninit):
                    raise DerefUninit(
                        f"dereference of uninitialized location {print_loc(loc)}",
                        span,
                    )
                return t
            case _:
                raise DerefNonPointer(
                    f"cannot dereference {print_type(pt)}", span
                )

    def place_type(self, place: PVar, span: Optional[Span]) -> Type:
        t = self.vals.lookup(place.name)
        if t is None:
            raise UnboundVariable(f"unbound variable '{place.name}'", span)
        return t


def _bind_rec(
    vals: ValCtx,
    fn: RecFn,
    params: Sequence[Type],
    self_type: Type,
    span: Optional[Span],
) -> ValCtx:
    """`vals` extended for the body of `fn`: its parameters at `params`,
    then its own name at `self_type`.  As in the interpreter's call-rec,
    the function's own name wins over a parameter and over an outer
    binding; a parameter may not shadow a bound name."""
    for pname, ptype in zip(fn.params, params):
        if vals.lookup(pname) is not None:
            raise CheckError(f"shadowing of '{pname}' is not supported", span)
        vals = vals.bind(pname, ptype)
    if vals.lookup(fn.fname) is None:
        return vals.bind(fn.fname, self_type)
    return vals.update(fn.fname, self_type)


# ---------------------------------------------------------------------------
# Shape-mode joins

def _shape_join(t1: Type, t2: Type) -> Type:
    return t2 if isinstance(t1, _Hole) else t1


def _shape_join_locs(l1: LocCtx, l2: LocCtx) -> LocCtx:
    items = []
    for loc, t1 in l1:
        t2 = l2.lookup(loc)
        if t2 is not None:
            items.append((loc, _shape_join(t1, t2)))
    return LocCtx(tuple(items))


# ---------------------------------------------------------------------------
# Whole-program checking

def build_globals(program: Program) -> ValCtx:
    vals = ValCtx()
    for name, sig in BUILTIN_SIGS.items():
        vals = vals.bind(name, sig)
    for decl in program.decls:
        if vals.lookup(decl.name) is not None:
            raise CheckError(f"duplicate top-level name '{decl.name}'", decl.span)
        try:
            wf_type(RefCtx(), decl.sig)
        except WfError as exc:
            raise CheckError(f"signature of '{decl.name}': {exc}", decl.span)
        vals = vals.bind(decl.name, decl.sig)
    return vals


def _counterexample_note(model) -> str:
    """`counterexample: a = 0, v = -1`, names sorted; empty without a model.
    A clause with no variables is false as it stands."""
    if model is None:
        return ""
    values = ", ".join(
        f"{name} = {str(value).lower() if isinstance(value, bool) else value}"
        for name, value in sorted(model.items())
    )
    return "counterexample: " + (values or "(no variables)")


def check_program(
    program: Program,
    oracle: Optional[Oracle] = None,
    quals: Optional[Sequence[Qualifier]] = None,
    debug_wf: bool = False,
    run_solver: bool = True,
) -> Report:
    """Check every declared function against its signature and the entry
    expression if present; aggregate constraints, solve per unit."""
    oracle = oracle or Oracle()
    quals = quals if quals is not None else default_qualifiers()
    units: List[UnitReport] = []

    try:
        globals_ctx = build_globals(program)
    except CheckError as exc:
        unit = UnitReport("<program>", Conj(()), [], "error")
        unit.diagnostics.append(Diagnostic("structure", exc.msg, exc.span))
        return Report([unit])

    kvars = KVarSupply()

    def run_unit(name: str, check, node) -> UnitReport:
        unit = UnitReport(name, Conj(()), [], "verified")
        checker = Checker(globals_ctx, kvars, debug_wf)
        try:
            result_type = check(checker, node)
        except (CheckError, SortError, WfError) as exc:
            rule = type(exc).__name__
            span = exc.span if isinstance(exc, CheckError) else None
            unit.status = "error"
            unit.diagnostics.append(Diagnostic(rule, str(exc), span))
            return unit
        unit.final_ctx = checker.ctx
        unit.constraint = Conj(tuple(checker.emitted))
        unit.clauses = constraint_clauses(unit.constraint)
        unit.result_type = result_type
        if run_solver:
            outcome = solve(unit.constraint, quals, oracle)
            unit.solution = outcome.solution
            if outcome.status != "sat":
                # `solve` names the failed clause with every other status;
                # an unknown verdict carries no counter-model
                rejected = outcome.status == "unsat"
                unit.status = "rejected" if rejected else "unknown"
                fc = outcome.failed_clause
                unit.diagnostics.append(
                    Diagnostic(
                        fc.provenance.rule,
                        "cannot prove clause"
                        if rejected
                        else f"oracle could not decide: {outcome.reason}",
                        fc.provenance.span,
                        clause_id=fc.cid,
                        note=_counterexample_note(outcome.counterexample),
                    )
                )
        return unit

    for decl in program.decls:
        units.append(run_unit(decl.name, Checker.check_fn, decl))
    if program.entry is not None:
        units.append(run_unit("entry", Checker.check_entry, program.entry))

    return Report(units)
