"""The expression typing engine.

Synthesizes types while threading the flow-sensitive location context,
emitting Horn constraints at the subtyping seams (call arguments,
assignments, declared-signature boundaries, and join points).  Each emitted
constraint is closed under the refinement context at the emission point, so
clauses are self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .builtins import BUILTIN_SIGS
from .constraints import (
    Clause,
    Conj,
    Constraint,
    ForAll,
    Head,
    Implies,
    Provenance,
    Qualifier,
    Solution,
    clauses as constraint_clauses,
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
    ELSE,
    KVarSupply,
    THEN,
    fresh_kvar_type,
    infer_rec_signature,
    join_locctx,
    join_types,
    solve,
)
from .logic import (
    Assume,
    Bind,
    RefCtx,
    SortError,
    base_of,
    free_vars,
    getsort,
    sortcheck,
    subst,
    subst_parallel,
)
from .oracle import Oracle
from .printer import print_loc, print_type
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
    ConcreteLoc,
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
    Loc,
    LocConst,
    LocCtx,
    Not,
    Place,
    Poison,
    PPtr,
    PrimOp,
    Program,
    PVar,
    RecFn,
    Ref,
    RefExpr,
    Sort,
    Span,
    StrongPtr,
    TaggedPtr,
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
    VecVal,
    is_aval,
)
from .wellformed import DynCtx, ValCtx, WfError, wf_locctx, wf_refctx, wf_type, wf_valctx


@dataclass(frozen=True)
class _Hole(Type):
    """Placeholder for a type the shape pass has not discovered yet."""


@dataclass(frozen=True)
class _ProbeSig(Type):
    """Provisional signature bound to an unannotated rec function during
    the shape pass; calls through it record their contexts."""

    probe_id: int
    domain: Tuple[Loc, ...]
    arity: int


@dataclass(frozen=True)
class _VecBuiltin(Type):
    kind: str  # "new" | "push" | "index_mut"


@dataclass
class Diagnostic:
    severity: str
    rule: str
    message: str
    span: Optional[Span] = None
    clause_id: Optional[int] = None
    note: str = ""

    def render(self, path: str = "<input>") -> str:
        at = f"{path}:{self.span}" if self.span else path
        clause = f" [clause {self.clause_id}]" if self.clause_id is not None else ""
        note = f"; {self.note}" if self.note else ""
        return f"{at}: {self.severity}: {self.rule}: {self.message}{clause}{note}"


@dataclass
class TypingResult:
    typ: Type
    out_locs: LocCtx
    constraints: Constraint


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

    def unit(self, name: str) -> UnitReport:
        for u in self.units:
            if u.name == name:
                return u
        raise KeyError(name)

    @property
    def entry_type(self) -> Optional[Type]:
        for u in self.units:
            if u.name == "entry":
                return u.result_type
        return None

    def diagnostics(self) -> List[Diagnostic]:
        out = []
        for u in self.units:
            out.extend(u.diagnostics)
        return out


class CheckState:
    """Mutable checking state for one function body."""

    def __init__(
        self,
        ctx: RefCtx,
        vals: ValCtx,
        locs: LocCtx,
        kvars: KVarSupply,
        debug_wf: bool = False,
    ):
        self.ctx = ctx
        self.vals = vals
        self.locs = locs
        self.dyn: DynCtx = {}
        self.kvars = kvars
        self.names = NameSupply()
        self.emitted: List[Constraint] = []
        self.debug_wf = debug_wf
        self.shape_mode = False
        self.probes: Dict[int, List[LocCtx]] = {}
        self.next_probe = 0
        self.auto_unpacked: Dict[str, str] = {}

    # -- context bookkeeping -------------------------------------------------

    def snapshot(self):
        return (self.ctx, self.vals, self.locs)

    def restore(self, snap) -> None:
        self.ctx, self.vals, self.locs = snap

    def emit(self, c: Constraint) -> None:
        if self.shape_mode:
            return
        if isinstance(c, Conj) and not c.parts:
            return
        self.emitted.append(_wrap_ctx(self.ctx, c))

    def emit_under(self, base_ctx: RefCtx, hyp: Optional[RefExpr], c: Constraint):
        if self.shape_mode:
            return
        if isinstance(c, Conj) and not c.parts:
            return
        if hyp is not None:
            c = Implies(hyp, c)
        self.emitted.append(_wrap_ctx(base_ctx, c))

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
        if not isinstance(t, Exists):
            return
        fresh = self.names.fresh(t.binder)
        self.ctx = self.ctx.bind(fresh, getsort(t.base)).assume(
            subst(t.pred, t.binder, Var(fresh))
        )
        self.vals = self.vals.update(x, Indexed(t.base, Var(fresh)))
        self.auto_unpacked[x] = fresh

    def open_existential(self, t: Type) -> Type:
        """Open a result-position existential into the refinement context."""
        if not isinstance(t, Exists):
            return t
        fresh = self.names.fresh(t.binder)
        self.ctx = self.ctx.bind(fresh, getsort(t.base)).assume(
            subst(t.pred, t.binder, Var(fresh))
        )
        return Indexed(t.base, Var(fresh))

    def open_loc(self, loc: Loc) -> None:
        t = self.locs.lookup(loc)
        if isinstance(t, Exists):
            fresh = self.names.fresh(t.binder)
            self.ctx = self.ctx.bind(fresh, getsort(t.base)).assume(
                subst(t.pred, t.binder, Var(fresh))
            )
            self.locs = self.locs.update(loc, Indexed(t.base, Var(fresh)))

    def rename_refvar(self, old: str, new: str) -> None:
        entries = []
        for entry in self.ctx:
            if isinstance(entry, Bind):
                entries.append(Bind(new, entry.sort) if entry.name == old else entry)
            else:
                entries.append(Assume(subst(entry.pred, old, Var(new))))
        self.ctx = RefCtx(tuple(entries))
        self.vals = ValCtx(
            tuple((n, subst(t, old, Var(new))) for n, t in self.vals)
        )
        self.locs = subst(self.locs, old, Var(new))
        self.auto_unpacked = {
            x: (new if v == old else v) for x, v in self.auto_unpacked.items()
        }


def _wrap_ctx(ctx: RefCtx, c: Constraint) -> Constraint:
    for entry in reversed(ctx.entries):
        if isinstance(entry, Bind):
            c = ForAll(entry.name, entry.sort, BoolConst(True), c)
        else:
            c = Implies(entry.pred, c)
    return c


# ---------------------------------------------------------------------------
# Refinement-parameter instantiation

def infer_refargs(
    state: CheckState,
    sig: FnSig,
    actual_args: Sequence[Type],
    span: Optional[Span],
) -> List[RefExpr]:
    """First-order syntactic unification of formal types against actuals;
    abstract-location parameters ride the same unifier, and parameters that
    occur only in the input location context are resolved against the
    current flow-sensitive context."""
    params = [n for n, _ in sig.refparams]
    assigned: Dict[str, RefExpr] = {}

    def unify(formal: Type, actual: Type) -> None:
        match (formal, actual):
            case (Indexed(fb, Var(p)), _) if p in params and p not in assigned:
                match actual:
                    case Indexed(_, idx):
                        assigned[p] = idx
                    case Exists(v, ab, pred):
                        fresh = state.names.fresh(v)
                        state.ctx = state.ctx.bind(fresh, getsort(ab)).assume(
                            subst(pred, v, Var(fresh))
                        )
                        assigned[p] = Var(fresh)
                if isinstance(fb, VecBase):
                    ab2 = base_of(actual)
                    if isinstance(ab2, VecBase):
                        unify(fb.elem, ab2.elem)
            case (Indexed(fb, _), _):
                if isinstance(fb, VecBase):
                    ab2 = base_of(actual)
                    if isinstance(ab2, VecBase):
                        unify(fb.elem, ab2.elem)
            case (StrongPtr(AbstractLoc(p)), StrongPtr(loc)) if p in params:
                assigned.setdefault(p, _loc_expr(loc))
            case (Ref(m1, fp), Ref(m2, ap)) if m1 == m2:
                unify(fp, ap)
            case _:
                pass

    for formal, actual in zip(sig.args, actual_args):
        unify(formal, actual)

    for floc, ftype in sig.in_locs:
        actual_loc: Optional[Loc] = None
        if isinstance(floc, AbstractLoc) and floc.name in params:
            got = assigned.get(floc.name)
            if got is None:
                continue
            actual_loc = _as_loc(got)
        else:
            actual_loc = floc
        if actual_loc is None:
            continue
        state.open_loc(actual_loc)
        at = state.locs.lookup(actual_loc)
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


def _loc_expr(loc: Loc) -> RefExpr:
    if isinstance(loc, AbstractLoc):
        return Var(loc.name)
    return LocConst(loc.loc_id)


def _as_loc(e: RefExpr) -> Optional[Loc]:
    if isinstance(e, Var):
        return AbstractLoc(e.name)
    if isinstance(e, LocConst):
        return ConcreteLoc(e.loc_id)
    return None


# ---------------------------------------------------------------------------
# The checker

class Checker:
    def __init__(
        self,
        globals_ctx: ValCtx,
        kvars: KVarSupply,
        debug_wf: bool = False,
    ):
        self.globals = globals_ctx
        self.kvars = kvars
        self.debug_wf = debug_wf

    # -- function checking ---------------------------------------------------

    def check_fn(self, decl: FnDecl) -> Tuple[Constraint, CheckState]:
        state = CheckState(
            RefCtx(), self.globals, LocCtx(), self.kvars, self.debug_wf
        )
        wf_type(state.ctx, decl.sig)
        self._check_recfn(state, decl.fn, decl.sig, decl.span)
        return Conj(tuple(state.emitted)), state

    def check_entry(self, entry: Expr) -> Tuple[Type, Constraint, CheckState]:
        state = CheckState(
            RefCtx(), self.globals, LocCtx(), self.kvars, self.debug_wf
        )
        t = state.open_existential(self.synth(state, entry))
        return t, Conj(tuple(state.emitted)), state

    def _check_recfn(
        self,
        state: CheckState,
        fn: RecFn,
        sig: FnSig,
        span: Optional[Span],
    ) -> None:
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
        snap = state.snapshot()
        ctx = state.ctx
        for name, sort in sig.refparams:
            ctx = ctx.bind(name, sort)
        ctx = ctx.assume(sig.requires)
        vals = state.vals
        for pname, ptype in zip(fn.params, sig.args):
            vals = vals.bind(pname, ptype)
        if vals.lookup(fn.fname) is None:
            vals = vals.bind(fn.fname, sig)
        else:
            # the top-level declaration already binds this name to the
            # same signature
            vals = vals.update(fn.fname, sig)
        state.ctx, state.vals, state.locs = ctx, vals, sig.in_locs
        state.assert_wf()

        prov = Provenance("fn-def", span, note=fn.fname)
        body_t = self.synth(state, fn.body)
        try:
            state.emit(subtype(state.ctx, body_t, sig.ret, prov, state.names))
            state.emit(
                ctx_include(state.ctx, state.locs, sig.out_locs, prov, state.names)
            )
        except StructuralError as exc:
            raise exc.at(span)
        state.restore(snap)

    # -- expression synthesis -------------------------------------------------

    def synth(self, state: CheckState, e: Expr) -> Type:
        state.assert_wf()
        match e:
            case Val(value, span):
                return self.synth_value(state, value, span)
            case VarRef(name, span):
                t = state.vals.lookup(name)
                if t is None:
                    raise UnboundVariable(f"unbound variable '{name}'", span)
                return t
            case Let(x, bound, body, span):
                if state.vals.lookup(x) is not None:
                    raise CheckError(f"shadowing of '{x}' is not supported", span)
                t = self.synth(state, bound)
                state.vals = state.vals.bind(x, t)
                return self.synth(state, body)
            case LetNew(x, locvar, body, span):
                return self.synth_letnew(state, e)
            case Unpack(x, a, body, span):
                self.do_unpack(state, x, a, span)
                return self.synth(state, body)
            case If(_, _, _, _):
                return self.synth_if(state, e)
            case Call(_, _, _, _, _):
                return self.synth_call(state, e)
            case Assign(place, rhs, span):
                return self.synth_assign(state, place, rhs, span)
            case BorrowStrong(place, span):
                t = self.place_type(state, place, span)
                if not isinstance(t, StrongPtr):
                    raise StructuralError(
                        f"&strg of a non-strong-pointer ({print_type(t)})", span
                    )
                return t
            case BorrowMut(place, span):
                return self.synth_borrow_mut(state, place, span)
            case BorrowShr(place, span):
                t = self.place_type(state, place, span)
                if isinstance(t, Ref):
                    return Ref("shr", t.pointee)
                raise StructuralError(
                    f"&shr expects a reference, got {print_type(t)}", span
                )
            case Deref(place, span):
                return self.synth_deref(state, place, span)
            case _:
                raise CheckError(f"cannot type expression {e!r}")

    def synth_value(self, state: CheckState, v: Value, span: Optional[Span]) -> Type:
        match v:
            case BoolLit(b):
                return Indexed(BoolBase(), BoolConst(b))
            case IntLit(z):
                return Indexed(IntBase(), IntConst(z))
            case Poison():
                return Uninit(1)
            case TaggedPtr(loc_id, tag):
                t = state.dyn.get((loc_id, tag))
                if t is None:
                    raise CheckError(
                        f"pointer ({loc_id},{tag}) not covered by the dynamic context",
                        span,
                    )
                return t
            case VecNew():
                return _VecBuiltin("new")
            case VecPush():
                return _VecBuiltin("push")
            case VecIndexMut():
                return _VecBuiltin("index_mut")
            case PrimOp(op):
                return BUILTIN_SIGS[op]
            case RecFn(_, _, _, _, sig) if sig is not None:
                self._check_recfn(state, v, sig, span)
                return sig
            case RecFn(_, _, _, _, None):
                return self.infer_inner_rec(state, v, span)
            case VecVal(_, _):
                raise CheckError("vector literals are runtime-only", span)
            case _:
                raise CheckError(f"cannot type value {v!r}", span)

    # -- let new / escape check ----------------------------------------------

    def synth_letnew(self, state: CheckState, e: LetNew) -> Type:
        locvar = e.locvar
        if state.ctx.sort_of(locvar) is not None:
            locvar = state.names.fresh(e.locvar)
        if state.vals.lookup(e.name) is not None:
            raise CheckError(f"shadowing of '{e.name}' is not supported", e.span)
        loc = AbstractLoc(locvar)
        state.ctx = state.ctx.bind(locvar, Sort.LOC)
        state.vals = state.vals.bind(e.name, StrongPtr(loc))
        state.locs = state.locs.bind(loc, Uninit(1))
        t = self.synth(state, e.body)
        state.locs = state.locs.remove(loc)
        if not state.shape_mode:
            if locvar in free_vars(t):
                raise EscapeError(
                    f"location '{locvar}' escapes through the result type "
                    f"{print_type(t)}",
                    e.span,
                )
            if locvar in free_vars(state.locs):
                raise EscapeError(
                    f"location '{locvar}' escapes through the location context",
                    e.span,
                )
        return t

    # -- unpack ----------------------------------------------------------------

    def do_unpack(self, state: CheckState, x: str, a: str, span: Optional[Span]):
        t = state.vals.lookup(x)
        if t is None:
            raise UnboundVariable(f"unbound variable '{x}'", span)
        if isinstance(t, Exists):
            name = a if state.ctx.sort_of(a) is None else state.names.fresh(a)
            state.ctx = state.ctx.bind(name, getsort(t.base)).assume(
                subst(t.pred, t.binder, Var(name))
            )
            state.vals = state.vals.update(x, Indexed(t.base, Var(name)))
            state.auto_unpacked[x] = name
            return
        if isinstance(t, Indexed):
            # already unpacked on the fly: rename the generated variable to
            # the program's name when possible, otherwise alias it
            prev = state.auto_unpacked.get(x)
            if (
                prev is not None
                and t.idx == Var(prev)
                and state.ctx.sort_of(a) is None
            ):
                state.rename_refvar(prev, a)
                state.auto_unpacked[x] = a
                return
            name = a if state.ctx.sort_of(a) is None else state.names.fresh(a)
            state.ctx = state.ctx.bind(name, getsort(t.base)).assume(
                Eq(Var(name), t.idx)
            )
            state.vals = state.vals.update(x, Indexed(t.base, Var(name)))
            return
        raise StructuralError(
            f"unpack of '{x}' at non-base type {print_type(t)}", span
        )

    # -- if / join -------------------------------------------------------------

    def synth_if(self, state: CheckState, e: If) -> Type:
        cond_t = state.open_existential(self.synth(state, e.cond))
        if isinstance(cond_t, _Hole):
            cond_t = Indexed(BoolBase(), BoolConst(True))
        if not (isinstance(cond_t, Indexed) and isinstance(cond_t.base, BoolBase)):
            raise StructuralError(
                f"if condition must be boolean, got {print_type(cond_t)}", e.span
            )
        guard = cond_t.idx
        snap = state.snapshot()
        base_ctx = state.ctx

        state.ctx = base_ctx.assume(guard)
        t1 = self.synth(state, e.then)
        locs1 = state.locs

        state.restore(snap)
        state.ctx = base_ctx.assume(Not(guard))
        t2 = self.synth(state, e.els)
        locs2 = state.locs

        state.restore(snap)
        prov = Provenance("if-join", e.span)

        if state.shape_mode:
            state.locs = _shape_join_locs(locs1, locs2)
            return _shape_join(t1, t2)

        try:
            joined_t, emissions = join_types(
                state.ctx, state.kvars, state.names, t1, t2, prov
            )
            joined_locs, loc_emissions = join_locctx(
                state.ctx, state.kvars, state.names, locs1, locs2, prov
            )
        except StructuralError as exc:
            raise exc.at(e.span)
        for tag, c in emissions + loc_emissions:
            if tag == THEN:
                state.emit_under(base_ctx, guard, c)
            elif tag == ELSE:
                state.emit_under(base_ctx, Not(guard), c)
            else:
                state.emit_under(base_ctx, None, c)
        state.locs = joined_locs
        return joined_t

    # -- calls -------------------------------------------------------------------

    def synth_call(self, state: CheckState, e: Call) -> Type:
        callee_t = self.synth(state, e.callee)

        if isinstance(callee_t, _ProbeSig):
            return self._record_probe(state, callee_t, e)

        for arg in e.args:
            if not is_aval(arg):
                raise CheckError("call arguments must be variables or values", e.span)
            if isinstance(arg, VarRef):
                state.unpack_on_the_fly(arg.name)
        actual_types = [self.synth(state, a) for a in e.args]

        if isinstance(callee_t, _VecBuiltin):
            sig = self._vec_sig(state, callee_t.kind, e, actual_types)
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
            refargs = infer_refargs(state, sig, actual_types, e.span)

        for arg_expr, (pname, psort) in zip(refargs, sig.refparams):
            try:
                got = sortcheck(state.ctx, arg_expr)
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
        in_locs = theta(sig.in_locs)
        if not state.shape_mode:
            for loc, want in in_locs:
                state.open_loc(loc)
                have = state.locs.lookup(loc)
                if have is None:
                    raise StructuralError(
                        f"call requires location {print_loc(loc)} which is not owned",
                        e.span,
                    )
                try:
                    state.emit(subtype(state.ctx, have, want, prov, state.names))
                except StructuralError as exc:
                    raise exc.at(e.span)
                state.locs = state.locs.remove(loc)
        else:
            for loc, _ in in_locs:
                if state.locs.lookup(loc) is not None:
                    state.locs = state.locs.remove(loc)

        for actual, formal in zip(actual_types, sig.args):
            want = theta(formal)
            if state.shape_mode and (
                isinstance(actual, _Hole) or isinstance(want, _Hole)
            ):
                continue
            try:
                state.emit(subtype(state.ctx, actual, want, prov, state.names))
            except StructuralError as exc:
                raise exc.at(e.span)

        requires = theta(sig.requires)
        state.emit(Head(requires, Provenance("requires", e.span)))

        out_locs = theta(sig.out_locs)
        items = list(state.locs.items)
        for loc, t in out_locs:
            items.append((loc, t))
        state.locs = LocCtx(tuple(items))
        return theta(sig.ret)

    def _record_probe(self, state: CheckState, probe: _ProbeSig, e: Call) -> Type:
        if len(e.args) != probe.arity:
            raise ArityMismatch("recursive call arity mismatch", e.span)
        restricted = LocCtx(
            tuple(
                (loc, t)
                for loc, t in state.locs
                if loc in probe.domain
            )
        )
        state.probes[probe.probe_id].append(restricted)
        return _Hole()

    def _vec_sig(
        self,
        state: CheckState,
        kind: str,
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
            return state.fresh_template(expected)

        explicit: Optional[BaseType] = None
        if e.type_args:
            explicit = base_of(e.type_args[0])

        if kind == "new":
            elem = elem_template(explicit)
            return FnSig((), BoolConst(True), LocCtx(), (), Indexed(VecBase(elem), IntConst(0)), LocCtx())

        if kind == "push":
            expected = explicit
            if expected is None and actual_types:
                expected = self._peek_vec_elem_base(state, actual_types[0])
            elem = elem_template(expected)
            # parameter names must not capture variables mentioned by the
            # element template, which refers to the enclosing scope
            np, lp = state.names.fresh("n"), state.names.fresh("l")
            n, l = Var(np), AbstractLoc(lp)
            return FnSig(
                refparams=((np, Sort.INT), (lp, Sort.LOC)),
                requires=BoolConst(True),
                in_locs=LocCtx(((l, Indexed(VecBase(elem), n)),)),
                args=(StrongPtr(l), elem),
                ret=Uninit(1),
                out_locs=LocCtx(((l, Indexed(VecBase(elem), BinArith("+", n, IntConst(1)))),)),
            )

        assert kind == "index_mut"
        expected = explicit
        if expected is None and actual_types:
            t0 = actual_types[0]
            if isinstance(t0, Ref):
                expected = self._peek_elem_base(t0.pointee)
        elem = elem_template(expected)
        ap, bp = state.names.fresh("a"), state.names.fresh("b")
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

    def _peek_vec_elem_base(
        self, state: CheckState, t: Type
    ) -> Optional[BaseType]:
        if isinstance(t, StrongPtr):
            state.open_loc(t.loc)
            entry = state.locs.lookup(t.loc)
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

    def infer_inner_rec(
        self, state: CheckState, fn: RecFn, span: Optional[Span]
    ) -> Type:
        if fn.refparams:
            raise CheckError(
                f"inner rec '{fn.fname}' declares refinement parameters but "
                "no signature",
                span,
            )
        entry_locs = state.locs
        probe_id = state.next_probe
        state.next_probe += 1
        state.probes[probe_id] = []
        probe = _ProbeSig(probe_id, entry_locs.domain(), len(fn.params))

        snap = state.snapshot()
        was_shape = state.shape_mode
        state.shape_mode = True
        vals = state.vals
        for pname in fn.params:
            vals = vals.bind(pname, Uninit(1))
        state.vals = vals.bind(fn.fname, probe)
        ret_shape: Optional[Type]
        try:
            ret_shape = self.synth(state, fn.body)
        finally:
            state.shape_mode = was_shape
            state.restore(snap)
        if isinstance(ret_shape, (_Hole, _ProbeSig, _VecBuiltin)):
            ret_shape = None
        sites = state.probes.pop(probe_id)

        template = infer_rec_signature(
            state.ctx,
            state.kvars,
            state.names,
            entry_locs,
            sites,
            len(fn.params),
            ret_shape,
        )
        self._check_recfn(state, fn, template.sig, span)
        return template.sig


    # -- assignment ----------------------------------------------------------------

    def synth_assign(
        self, state: CheckState, place: Place, rhs: Expr, span: Optional[Span]
    ) -> Type:
        rhs_t = self.synth(state, rhs)
        pt = self.place_type(state, place, span)
        match pt:
            case StrongPtr(loc):
                if state.locs.lookup(loc) is None:
                    raise StructuralError(
                        f"assignment to unowned location {print_loc(loc)}", span
                    )
                if isinstance(rhs_t, _Hole):
                    rhs_t = Uninit(1)
                state.locs = state.locs.update(loc, rhs_t)
                return Uninit(1)
            case Ref("mut", pointee):
                prov = Provenance("assign", span)
                if not (state.shape_mode and isinstance(rhs_t, _Hole)):
                    try:
                        state.emit(
                            subtype(state.ctx, rhs_t, pointee, prov, state.names)
                        )
                    except StructuralError as exc:
                        raise exc.at(span)
                return Uninit(1)
            case Ref("shr", _):
                raise AssignThroughShared(
                    "cannot assign through a shared reference", span
                )
            case _:
                raise StructuralError(
                    f"cannot assign through {print_type(pt)}", span
                )

    # -- borrows and dereference ------------------------------------------------

    def synth_borrow_mut(
        self, state: CheckState, place: Place, span: Optional[Span]
    ) -> Type:
        pt = self.place_type(state, place, span)
        match pt:
            case StrongPtr(loc):
                cur = state.locs.lookup(loc)
                if cur is None:
                    raise StructuralError(
                        f"borrow of unowned location {print_loc(loc)}", span
                    )
                base = base_of(cur)
                if base is None or state.shape_mode:
                    return Ref("mut", cur)
                weakened = state.fresh_template(base)
                prov = Provenance("borrow-mut", span)
                state.emit(subtype(state.ctx, cur, weakened, prov, state.names))
                state.locs = state.locs.update(loc, weakened)
                return Ref("mut", weakened)
            case Ref("mut", _):
                return pt
            case _:
                raise StructuralError(
                    f"&mut expects a strong pointer or mutable reference, "
                    f"got {print_type(pt)}",
                    span,
                )

    def synth_deref(
        self, state: CheckState, place: Place, span: Optional[Span]
    ) -> Type:
        pt = self.place_type(state, place, span)
        match pt:
            case Ref(_, pointee):
                return pointee
            case StrongPtr(loc):
                t = state.locs.lookup(loc)
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

    def place_type(
        self, state: CheckState, place: Place, span: Optional[Span]
    ) -> Type:
        if isinstance(place, PVar):
            t = state.vals.lookup(place.name)
            if t is None:
                raise UnboundVariable(f"unbound variable '{place.name}'", span)
            return t
        if isinstance(place, PPtr):
            t = state.dyn.get((place.loc_id, place.tag))
            if t is None:
                raise CheckError(
                    "tagged pointer not covered by the dynamic context", span
                )
            return t
        raise CheckError("invalid place", span)


def synth(checker: Checker, state: CheckState, e: Expr) -> TypingResult:
    """Synthesize a type for one expression, returning the output location
    context and the constraints this expression contributed."""
    mark = len(state.emitted)
    t = checker.synth(state, e)
    return TypingResult(t, state.locs, Conj(tuple(state.emitted[mark:])))


# ---------------------------------------------------------------------------
# Shape-mode joins

def _shape_join(t1: Type, t2: Type) -> Type:
    if isinstance(t1, _Hole):
        return t2
    if isinstance(t2, _Hole):
        return t1
    return t1


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
        unit.diagnostics.append(
            Diagnostic("error", "structure", exc.msg, exc.span)
        )
        return Report([unit])

    kvars = KVarSupply()
    checker = Checker(globals_ctx, kvars, debug_wf)

    def run_unit(name: str, produce) -> UnitReport:
        unit = UnitReport(name, Conj(()), [], "verified")
        try:
            result_type, constraint, final_ctx = produce()
        except (CheckError, SortError, WfError) as exc:
            rule = type(exc).__name__
            span = exc.span if isinstance(exc, CheckError) else None
            unit.status = "error"
            unit.diagnostics.append(Diagnostic("error", rule, str(exc), span))
            return unit
        unit.final_ctx = final_ctx
        unit.constraint = normalize(constraint)
        unit.clauses = constraint_clauses(unit.constraint)
        unit.result_type = result_type
        if run_solver:
            outcome = solve(unit.constraint, quals, oracle)
            unit.solution = outcome.solution
            if outcome.status == "sat":
                unit.status = "verified"
            elif outcome.status == "unsat":
                unit.status = "rejected"
                fc = outcome.failed_clause
                if fc is not None:
                    unit.diagnostics.append(
                        Diagnostic(
                            "error",
                            fc.provenance.rule,
                            "cannot prove clause",
                            fc.provenance.span,
                            clause_id=fc.cid,
                            note=_counterexample_note(outcome.counterexample),
                        )
                    )
            else:
                unit.status = "unknown"
                fc = outcome.failed_clause
                unit.diagnostics.append(
                    Diagnostic(
                        "error",
                        fc.provenance.rule if fc else "oracle",
                        f"oracle could not decide: {outcome.reason}",
                        fc.provenance.span if fc else None,
                        clause_id=fc.cid if fc else None,
                    )
                )
        return unit

    for decl in program.decls:

        def produce(decl=decl):
            constraint, _state = checker.check_fn(decl)
            return decl.sig, constraint, None

        units.append(run_unit(decl.name, produce))

    if program.entry is not None:

        def produce_entry():
            t, constraint, state = checker.check_entry(program.entry)
            return t, constraint, state.ctx

        units.append(run_unit("entry", produce_entry))

    return Report(units)
