"""Well-formedness checks for types and the three kinds of contexts."""

from __future__ import annotations

from typing import Optional, Tuple

from .logic import PersistentCtx, RefCtx, SortError, getsort, sortcheck
from .syntax import (
    AbstractLoc,
    Exists,
    FnSig,
    Indexed,
    LocCtx,
    Ref,
    Sort,
    StrongPtr,
    Type,
    Uninit,
    VecBase,
)


class WfError(Exception):
    def __init__(self, rule: str, msg: str):
        super().__init__(f"{rule}: {msg}")
        self.rule = rule
        self.msg = msg


class ValCtx(PersistentCtx):
    """Ordered value context.  Its names are unique: the checker rejects a
    `let`, `new` or parameter that shadows a bound name, and `bind` asserts
    it.  `update` appends a row under the same name, so `items` lists each
    name once, where it was bound, with its newest type."""

    __slots__ = ()
    __match_args__ = ("items",)

    @staticmethod
    def _name(entry) -> Optional[str]:
        return entry[0]

    @staticmethod
    def _view(rows: list) -> tuple:
        return tuple({name: item for name, item, _ in rows}.values())

    @property
    def items(self) -> Tuple[Tuple[str, Type], ...]:
        return self._all()

    def lookup(self, name: str) -> Optional[Type]:
        item = self._find(name)
        return None if item is None else item[1]

    def bind(self, name: str, typ: Type) -> "ValCtx":
        assert self._find(name) is None, f"'{name}' is already bound"
        return self._extended((name, typ))

    def update(self, name: str, typ: Type) -> "ValCtx":
        if self._find(name) is None:
            return self
        return self._extended((name, typ))

    def domain(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.items)


def _check_loc(ctx: RefCtx, loc: AbstractLoc) -> None:
    sort = ctx.sort_of(loc.name)
    if sort is None:
        raise WfError("wf-ptr", f"unbound location variable '{loc.name}'")
    if sort != Sort.LOC:
        raise WfError("wf-ptr", f"'{loc.name}' has sort {sort}, expected loc")


def wf_type(ctx: RefCtx, typ: Type) -> None:
    match typ:
        case Indexed(base, idx):
            if isinstance(base, VecBase):
                wf_type(ctx, base.elem)
            try:
                got = sortcheck(ctx, idx)
            except SortError as exc:
                raise WfError("wf-idx", str(exc)) from exc
            want = getsort(base)
            if got != want:
                raise WfError("wf-idx", f"index has sort {got}, expected {want}")
        case Exists(binder, base, pred):
            if isinstance(base, VecBase):
                wf_type(ctx, base.elem)
            inner = ctx.bind(binder, getsort(base))
            try:
                got = sortcheck(inner, pred)
            except SortError as exc:
                raise WfError("wf-ex", str(exc)) from exc
            if got != Sort.BOOL:
                raise WfError("wf-ex", f"predicate has sort {got}, expected bool")
        case StrongPtr(loc):
            _check_loc(ctx, loc)
        case Ref(_, pointee):
            wf_type(ctx, pointee)
        case Uninit(n):
            if n <= 0:
                raise WfError("wf-mem", f"uninit size must be positive, got {n}")
        case FnSig(refparams, requires, in_locs, args, ret, out_locs):
            seen = set()
            inner = ctx
            for name, sort in refparams:
                if name in seen:
                    raise WfError("wf-fun", f"duplicate refinement parameter '{name}'")
                seen.add(name)
                inner = inner.bind(name, sort)
            try:
                got = sortcheck(inner, requires)
            except SortError as exc:
                raise WfError("wf-fun", str(exc)) from exc
            if got != Sort.BOOL:
                raise WfError("wf-fun", "requires clause must be boolean")
            out_dom = set(out_locs.domain())
            in_dom = set(in_locs.domain())
            if not out_dom <= in_dom:
                missing = out_dom - in_dom
                raise WfError(
                    "wf-fun",
                    "output locations not covered by inputs: "
                    + ", ".join(sorted(str(l) for l in missing)),
                )
            wf_locctx(inner, in_locs)
            for a in args:
                wf_type(inner, a)
            wf_type(inner, ret)
            wf_locctx(inner, out_locs)
        case _:
            raise WfError("wf", f"unknown type {typ!r}")


def wf_valctx(ctx: RefCtx, vals: ValCtx) -> None:
    seen = set()
    for name, typ in vals:
        if name in seen:
            raise WfError("wf-bind", f"duplicate binding '{name}'")
        seen.add(name)
        wf_type(ctx, typ)


def wf_locctx(ctx: RefCtx, locs: LocCtx) -> None:
    seen = set()
    for loc, typ in locs:
        if loc in seen:
            raise WfError("wf-bind", f"duplicate location {loc!r}")
        seen.add(loc)
        _check_loc(ctx, loc)
        wf_type(ctx, typ)


def wf_refctx(ctx: RefCtx) -> None:
    from .logic import Assume, Bind

    prefix = RefCtx()
    for entry in ctx:
        if isinstance(entry, Bind):
            if prefix.sort_of(entry.name) is not None:
                raise WfError("wf-refctx", f"duplicate binder '{entry.name}'")
            prefix = prefix.bind(entry.name, entry.sort)
        elif isinstance(entry, Assume):
            try:
                got = sortcheck(prefix, entry.pred)
            except SortError as exc:
                raise WfError("wf-refctx", str(exc)) from exc
            if got != Sort.BOOL:
                raise WfError("wf-refctx", "assumption must be boolean")
            prefix = prefix.assume(entry.pred)
