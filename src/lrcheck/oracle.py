"""Quantifier-free validity checking for ground implications.

The built-in decision procedure covers linear integer arithmetic with
booleans and location equality: validity of `hyps => goal` is decided by
refuting `hyps and not goal` through DNF cube enumeration and
Fourier-Motzkin elimination (with strict inequalities tightened over the
integers, so "unsat" is sound for validity).  Goals that share hypotheses
are decided together: each satisfiable hypothesis cube is deduplicated and
its unit-coefficient equalities are eliminated once, by exact Gaussian
substitution; each negated goal cube then only has those substitutions
applied to its own rows.  A goal row that the cube contradicts or implies
row by row is settled without Fourier-Motzkin.  Satisfiable relaxations are
answered Invalid only when a concrete integer counter-model is found and
re-checked by evaluation; otherwise the verdict is Unknown.

An external SMT-LIB2 solver can be plugged in over a child-process pipe;
see `SmtBackend`.  Nonlinear products are abstracted as opaque variables,
which keeps Valid sound and makes some queries Unknown.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .logic import RefCtx, contains_kapp, sortcheck
from .syntax import (
    BinArith,
    BinBool,
    BoolConst,
    Cmp,
    Eq,
    IntConst,
    KApp,
    LocConst,
    Not,
    RefExpr,
    Sort,
    Var,
    subterms,
)

MAX_CUBES = 8192
MAX_MODEL_CANDIDATES = 6000


@dataclass(frozen=True)
class Query:
    binders: Tuple[Tuple[str, Sort], ...]
    hyps: Tuple[RefExpr, ...]
    goal: RefExpr


@dataclass(frozen=True)
class Verdict:
    status: str  # "valid" | "invalid" | "unknown"
    model: Optional[Dict[str, Union[int, bool]]] = None
    reason: str = ""

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"

    @property
    def is_invalid(self) -> bool:
        return self.status == "invalid"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


VALID = Verdict("valid")


class OracleError(Exception):
    pass


# ---------------------------------------------------------------------------
# Closed evaluation

def eval_closed(e: RefExpr, env: Dict[str, Union[int, bool]]):
    """Big-step evaluation with exact integer semantics; total over
    well-sorted closed terms."""
    match e:
        case Var(name):
            return env[name]
        case IntConst(v):
            return v
        case BoolConst(v):
            return v
        case LocConst(l):
            return l
        case Eq(l, r):
            return eval_closed(l, env) == eval_closed(r, env)
        case Not(a):
            return not eval_closed(a, env)
        case BinBool("and", l, r):
            return eval_closed(l, env) and eval_closed(r, env)
        case BinBool("or", l, r):
            return eval_closed(l, env) or eval_closed(r, env)
        case BinArith(op, l, r):
            a, b = eval_closed(l, env), eval_closed(r, env)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            return a * b
        case Cmp(op, l, r):
            a, b = eval_closed(l, env), eval_closed(r, env)
            return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
        case _:
            raise OracleError(f"eval_closed: cannot evaluate {e!r}")


# ---------------------------------------------------------------------------
# Linear forms:  coeffs . vars + const  <= 0

LinForm = Tuple[Dict[str, int], int]


def _lin(e: RefExpr, prods: Dict[RefExpr, str]) -> LinForm:
    match e:
        case Var(name):
            return ({name: 1}, 0)
        case IntConst(v):
            return ({}, v)
        case LocConst(l):
            return ({}, l)
        case BinArith("+", l, r):
            return _lin_add(_lin(l, prods), _lin(r, prods), 1)
        case BinArith("-", l, r):
            return _lin_add(_lin(l, prods), _lin(r, prods), -1)
        case BinArith("*", l, r):
            cl, kl = _lin(l, prods)
            cr, kr = _lin(r, prods)
            if not cl:
                return ({v: kl * c for v, c in cr.items() if kl * c != 0}, kl * kr)
            if not cr:
                return ({v: kr * c for v, c in cl.items() if kr * c != 0}, kr * kl)
            # nonlinear: abstract the whole product as an opaque variable
            key = e
            name = prods.setdefault(key, f"_prod{len(prods)}")
            return ({name: 1}, 0)
        case _:
            raise OracleError(f"not an integer term: {e!r}")


def _lin_add(a: LinForm, b: LinForm, sign: int) -> LinForm:
    coeffs = dict(a[0])
    for v, c in b[0].items():
        coeffs[v] = coeffs.get(v, 0) + sign * c
        if coeffs[v] == 0:
            del coeffs[v]
    return (coeffs, a[1] + sign * b[1])


def _le_zero(lhs: RefExpr, rhs: RefExpr, extra: int, prods) -> LinForm:
    """lhs - rhs + extra <= 0"""
    form = _lin_add(_lin(lhs, prods), _lin(rhs, prods), -1)
    return (form[0], form[1] + extra)


# Literals: ("le", LinForm) or ("bool", name, value)
Literal = Tuple


def _atom_cubes(e: RefExpr, positive: bool, sorts: Dict[str, Sort], prods):
    """DNF cubes (lists of literals) for an atomic or boolean formula."""
    match e:
        case BoolConst(v):
            truth = v if positive else not v
            return [[]] if truth else []
        case Var(name):
            if sorts.get(name) == Sort.BOOL:
                return [[("bool", name, positive)]]
            raise OracleError(f"non-boolean variable {name} used as a formula")
        case Not(a):
            return _cubes(a, not positive, sorts, prods)
        case BinBool("and", l, r):
            if positive:
                return _cross(
                    _cubes(l, True, sorts, prods), _cubes(r, True, sorts, prods)
                )
            return _cubes(l, False, sorts, prods) + _cubes(r, False, sorts, prods)
        case BinBool("or", l, r):
            if positive:
                return _cubes(l, True, sorts, prods) + _cubes(r, True, sorts, prods)
            return _cross(
                _cubes(l, False, sorts, prods), _cubes(r, False, sorts, prods)
            )
        case Cmp(op, l, r):
            if not positive:
                op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}[op]
            if op == "<":
                return [[("le", _le_zero(l, r, 1, prods))]]
            if op == "<=":
                return [[("le", _le_zero(l, r, 0, prods))]]
            if op == ">":
                return [[("le", _le_zero(r, l, 1, prods))]]
            return [[("le", _le_zero(r, l, 0, prods))]]
        case Eq(l, r):
            lsort = _sort_of_term(l, sorts)
            if lsort == Sort.BOOL:
                if positive:
                    both = _cross(
                        _cubes(l, True, sorts, prods), _cubes(r, True, sorts, prods)
                    )
                    neither = _cross(
                        _cubes(l, False, sorts, prods), _cubes(r, False, sorts, prods)
                    )
                    return both + neither
                forward = _cross(
                    _cubes(l, True, sorts, prods), _cubes(r, False, sorts, prods)
                )
                backward = _cross(
                    _cubes(l, False, sorts, prods), _cubes(r, True, sorts, prods)
                )
                return forward + backward
            if positive:
                return [
                    [("le", _le_zero(l, r, 0, prods)), ("le", _le_zero(r, l, 0, prods))]
                ]
            return [
                [("le", _le_zero(l, r, 1, prods))],
                [("le", _le_zero(r, l, 1, prods))],
            ]
        case KApp(_, _):
            raise OracleError("unknown predicate in oracle query")
        case _:
            raise OracleError(f"not a formula: {e!r}")


def _cubes(e: RefExpr, positive: bool, sorts, prods):
    cubes = _atom_cubes(e, positive, sorts, prods)
    if len(cubes) > MAX_CUBES:
        raise _TooLarge()
    return cubes


class _TooLarge(Exception):
    pass


def _cross(a, b):
    if len(a) * len(b) > MAX_CUBES:
        raise _TooLarge()
    return [x + y for x in a for y in b]


def _sort_of_term(e: RefExpr, sorts: Dict[str, Sort]) -> Sort:
    match e:
        case Var(name):
            return sorts.get(name, Sort.INT)
        case IntConst(_) | BinArith(_, _, _):
            return Sort.INT
        case LocConst(_):
            return Sort.LOC
        case BoolConst(_) | Eq(_, _) | Not(_) | BinBool(_, _, _) | Cmp(_, _, _):
            return Sort.BOOL
        case _:
            return Sort.INT


# ---------------------------------------------------------------------------
# Fourier-Motzkin refutation of a cube

def _dedupe(rows: List[LinForm]) -> List[LinForm]:
    """Keep only the tightest row per coefficient vector (coeffs.x + c <= 0
    with larger c subsumes smaller).  Zero coefficients are dropped."""
    best: Dict[frozenset, Tuple[Dict[str, int], int]] = {}
    for coeffs, const in rows:
        if any(c == 0 for c in coeffs.values()):
            coeffs = {v: c for v, c in coeffs.items() if c != 0}
        key = frozenset(coeffs.items())
        prev = best.get(key)
        if prev is None or const > prev[1]:
            best[key] = (coeffs, const)
    return list(best.values())


# var := coeffs . vars + const
Substitution = Tuple[str, Dict[str, int], int]


def _substitute(row: LinForm, subs: Sequence[Substitution]) -> LinForm:
    """Apply substitutions in order; a substitution never mentions the
    variable of an earlier one, so the result is free of all of them."""
    coeffs, const = row
    for var, lin, k in subs:
        factor = coeffs.get(var, 0)
        if factor == 0:
            continue
        coeffs = {v: c for v, c in coeffs.items() if v != var}
        for v, c in lin.items():
            total = coeffs.get(v, 0) + factor * c
            if total:
                coeffs[v] = total
            else:
                del coeffs[v]
        const += factor * k
    return coeffs, const


def _eliminate_equalities(
    rows: List[LinForm],
) -> Tuple[List[LinForm], List[Substitution]]:
    """Eliminate variables defined by unit-coefficient equalities (pairs of
    opposing rows) from deduplicated rows; exact over the rationals.
    Returns the remaining rows and the substitutions made, in order."""
    subs: List[Substitution] = []
    while True:
        index = {frozenset(c.items()): k for c, k in rows}
        for coeffs, const in rows:
            if not coeffs:
                continue
            if index.get(frozenset((v, -c) for v, c in coeffs.items())) != -const:
                continue
            var = next((v for v, c in coeffs.items() if c in (1, -1)), None)
            if var is not None:
                break
        else:
            return rows, subs
        sign = coeffs[var]
        rest = {v: -sign * c for v, c in coeffs.items() if v != var}
        sub = (var, rest, -sign * const)
        subs.append(sub)
        rows = _dedupe([_substitute(r, (sub,)) for r in rows])


def _fm_unsat(rows: List[LinForm]) -> bool:
    """True when the system {row <= 0} has no rational solution.  Because
    strict integer comparisons were tightened to non-strict ones, rational
    unsatisfiability is sound for integer unsatisfiability."""
    rows = _dedupe(rows)
    while True:
        rows, _ = _eliminate_equalities(rows)
        if any(const > 0 for coeffs, const in rows if not coeffs):
            return True
        rows = [r for r in rows if r[0]]
        if not rows:
            return False
        # pick the variable minimizing the upper*lower product
        stats: Dict[str, Tuple[int, int]] = {}
        for coeffs, _ in rows:
            for v, c in coeffs.items():
                up, lo = stats.get(v, (0, 0))
                stats[v] = (up + (c > 0), lo + (c < 0))
        var = min(sorted(stats), key=lambda v: stats[v][0] * stats[v][1])
        uppers, lowers, rest = [], [], []
        for coeffs, const in rows:
            c = coeffs.get(var, 0)
            if c > 0:
                uppers.append((coeffs, const))
            elif c < 0:
                lowers.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        new_rows = rest
        for ucoef, uconst in uppers:
            cu = ucoef[var]
            for lcoef, lconst in lowers:
                cl = -lcoef[var]
                combined: Dict[str, int] = {}
                for v, c in ucoef.items():
                    combined[v] = combined.get(v, 0) + cl * c
                for v, c in lcoef.items():
                    combined[v] = combined.get(v, 0) + cu * c
                combined.pop(var, None)
                combined = {v: c for v, c in combined.items() if c != 0}
                new_rows.append((combined, cl * uconst + cu * lconst))
        rows = _dedupe(new_rows)
        if len(rows) > 4000:
            raise _TooLarge()


# ---------------------------------------------------------------------------
# Built-in decision procedure

def _cube_consistent(cube):
    bools: Dict[str, bool] = {}
    rows: List[LinForm] = []
    for lit in cube:
        if lit[0] == "bool":
            _, name, val = lit
            if bools.get(name, val) != val:
                return None
            bools[name] = val
        else:
            rows.append(lit[1])
    return bools, rows


def _against_cube(
    grows: List[LinForm], subs: Sequence[Substitution], bounds: Dict[frozenset, int]
) -> Optional[List[LinForm]]:
    """Goal rows under a reduced cube: substituted, and without the rows a
    cube row already implies.  None when a row contradicts the cube alone
    or a cube row with opposite coefficients."""
    out = []
    for row in grows:
        coeffs, const = _substitute(row, subs)
        if not coeffs:
            if const > 0:
                return None
            continue
        items = coeffs.items()
        implied = bounds.get(frozenset(items))
        if implied is not None and implied >= const:
            continue
        opposite = bounds.get(frozenset((v, -c) for v, c in items))
        if opposite is not None and opposite + const > 0:
            return None
        out.append((coeffs, const))
    return out


def _decide_many(
    binders: Tuple[Tuple[str, Sort], ...],
    hyps: Tuple[RefExpr, ...],
    goals: Sequence[RefExpr],
    want_model: bool = True,
) -> List[Verdict]:
    """Decide several goals under shared hypotheses; the hypothesis cubes
    are processed once."""
    sorts = {name: sort for name, sort in binders}
    prods: Dict[RefExpr, str] = {}

    try:
        hyp_cubes = [[]]
        for h in hyps:
            hyp_cubes = _cross(hyp_cubes, _cubes(h, True, sorts, prods))
    except _TooLarge:
        return [
            Verdict("unknown", reason="formula too large for built-in oracle")
            for _ in goals
        ]

    # each satisfiable hypothesis cube, deduplicated and with its
    # equalities eliminated, plus the substitutions that eliminated them
    reduced = []
    try:
        for cube in hyp_cubes:
            split = _cube_consistent(cube)
            if split is None:
                continue
            bools, rows = split
            rows, subs = _eliminate_equalities(_dedupe(rows))
            if _fm_unsat(rows):
                continue
            bounds = {frozenset(c.items()): k for c, k in rows}
            reduced.append((bools, rows, subs, bounds))
    except _TooLarge:
        return [Verdict("unknown", reason="built-in oracle blowup") for _ in goals]

    out: List[Verdict] = []
    for goal in goals:
        if not reduced:
            out.append(VALID)  # hypotheses are unsatisfiable
            continue
        try:
            neg_cubes = _cubes(goal, False, sorts, prods)
        except _TooLarge:
            out.append(Verdict("unknown", reason="goal too large"))
            continue
        neg_splits = [sp for sp in map(_cube_consistent, neg_cubes) if sp is not None]
        refuted = True
        try:
            for bools, rows, subs, bounds in reduced:
                for gbools, grows in neg_splits:
                    if any(bools.get(n, v) != v for n, v in gbools.items()):
                        continue
                    open_rows = _against_cube(grows, subs, bounds)
                    if open_rows is None:
                        continue
                    # with no goal row left, the cube alone is satisfiable
                    if not open_rows or not _fm_unsat(rows + open_rows):
                        refuted = False
                        break
                if not refuted:
                    break
        except _TooLarge:
            out.append(Verdict("unknown", reason="built-in oracle blowup"))
            continue
        if refuted:
            out.append(VALID)
            continue
        if not want_model:
            out.append(Verdict("invalid"))
            continue
        query = Query(binders, hyps, goal)
        model = _search_counter_model(query, sorts)
        if model is not None:
            out.append(Verdict("invalid", model=model))
        else:
            out.append(
                Verdict(
                    "unknown",
                    reason="satisfiable relaxation, no integer model found",
                )
            )
    return out


def _decide(query: Query, want_model: bool = True) -> Verdict:
    return _decide_many(query.binders, query.hyps, [query.goal], want_model)[0]


def _search_counter_model(query: Query, sorts) -> Optional[Dict[str, Union[int, bool]]]:
    """Bounded enumeration of integer/boolean assignments, checked by
    evaluation of the original formula."""
    consts = set()
    for e in (*query.hyps, query.goal):
        for x in subterms(e):
            if isinstance(x, IntConst):
                consts.add(x.value)
            elif isinstance(x, LocConst):
                consts.add(x.loc_id)

    # small magnitudes first so the reported model is simple
    candidates = sorted(
        set(
            itertools.chain(
                range(-2, 3), consts, (c + 1 for c in consts), (c - 1 for c in consts)
            )
        ),
        key=lambda v: (abs(v), v),
    )
    int_vars = [n for n, s in query.binders if s in (Sort.INT, Sort.LOC)]
    bool_vars = [n for n, s in query.binders if s == Sort.BOOL]

    total = (len(candidates) ** len(int_vars)) * (2 ** len(bool_vars))
    rng = random.Random(0)

    def assignments():
        if total <= MAX_MODEL_CANDIDATES:
            for ints in itertools.product(candidates, repeat=len(int_vars)):
                for bools in itertools.product((False, True), repeat=len(bool_vars)):
                    yield ints, bools
        else:
            short = candidates[:6] or [0]
            for ints in itertools.islice(
                itertools.product(short, repeat=len(int_vars)),
                MAX_MODEL_CANDIDATES // 2,
            ):
                for bools in itertools.product((False, True), repeat=len(bool_vars)):
                    yield ints, bools
            for _ in range(MAX_MODEL_CANDIDATES // 2):
                yield (
                    tuple(rng.choice(candidates) for _ in int_vars),
                    tuple(rng.choice((False, True)) for _ in bool_vars),
                )

    for ints, bools in assignments():
        env: Dict[str, Union[int, bool]] = dict(zip(int_vars, ints))
        env.update(zip(bool_vars, bools))
        try:
            if all(eval_closed(h, env) for h in query.hyps) and not eval_closed(
                query.goal, env
            ):
                return env
        except OracleError:
            return None
    return None


# ---------------------------------------------------------------------------
# Canonical cache keys

def _canonical(query: Query) -> str:
    renaming = {name: f"b{i}" for i, (name, _) in enumerate(query.binders)}

    def cexpr(e: RefExpr) -> str:
        match e:
            case Var(n):
                return renaming.get(n, f"?{n}")
            case IntConst(v):
                return str(v)
            case BoolConst(v):
                return "T" if v else "F"
            case LocConst(l):
                return f"L{l}"
            case Eq(l, r):
                return f"(= {cexpr(l)} {cexpr(r)})"
            case Not(a):
                return f"(! {cexpr(a)})"
            case BinBool(op, l, r):
                return f"({op} {cexpr(l)} {cexpr(r)})"
            case BinArith(op, l, r):
                return f"({op} {cexpr(l)} {cexpr(r)})"
            case Cmp(op, l, r):
                return f"({op} {cexpr(l)} {cexpr(r)})"
            case _:
                return repr(e)

    binders = ",".join(f"{renaming[n]}:{s}" for n, s in query.binders)
    hyps = ";".join(cexpr(h) for h in query.hyps)
    return f"[{binders}]{hyps}|-{cexpr(query.goal)}"


# ---------------------------------------------------------------------------
# SMT-LIB2 child-process backend

def to_smt2(e: RefExpr) -> str:
    match e:
        case Var(n):
            return f"|{n}|"
        case IntConst(v):
            return str(v) if v >= 0 else f"(- {-v})"
        case BoolConst(v):
            return "true" if v else "false"
        case LocConst(l):
            return str(l)
        case Eq(l, r):
            return f"(= {to_smt2(l)} {to_smt2(r)})"
        case Not(a):
            return f"(not {to_smt2(a)})"
        case BinBool(op, l, r):
            return f"({'and' if op == 'and' else 'or'} {to_smt2(l)} {to_smt2(r)})"
        case BinArith(op, l, r):
            return f"({op} {to_smt2(l)} {to_smt2(r)})"
        case Cmp(op, l, r):
            return f"({op} {to_smt2(l)} {to_smt2(r)})"
        case _:
            raise OracleError(f"to_smt2: {e!r}")


class SmtBackend:
    """Textual SMT-LIB2 over a child-process pipe; one push/pop per query.
    Transcripts of failed queries can be dumped to a directory."""

    def __init__(
        self,
        command: Sequence[str],
        timeout: float = 10.0,
        transcript_dir: Optional[str] = None,
    ):
        self.command = list(command)
        self.timeout = timeout
        self.transcript_dir = transcript_dir
        self.dumped = 0
        self.proc = None
        self.transcript: List[str] = []
        self._rxbuf = ""

    def _ensure_started(self):
        import subprocess

        if self.proc is not None and self.proc.poll() is None:
            return
        self._rxbuf = ""
        self.proc = subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self._send("(set-logic QF_LIA)")

    def _send(self, line: str):
        self.transcript.append(f"> {line}")
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def _recv(self) -> str:
        import os
        import select

        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        while "\n" not in self._rxbuf:
            ready, _, _ = select.select([fd], [], [], self.timeout)
            if not ready:
                self.proc.kill()
                self.proc = None
                raise OSError(f"solver timed out after {self.timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise OSError("solver closed its output")
            self._rxbuf += chunk.decode("utf-8", errors="replace")
        line, self._rxbuf = self._rxbuf.split("\n", 1)
        line = line.strip()
        self.transcript.append(f"< {line}")
        return line

    def _dump_transcript(self) -> None:
        if self.transcript_dir is None:
            return
        import os

        os.makedirs(self.transcript_dir, exist_ok=True)
        path = os.path.join(self.transcript_dir, f"query-{self.dumped:04d}.smt2")
        self.dumped += 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self.transcript) + "\n")

    def close(self):
        if self.proc is not None and self.proc.poll() is None:
            try:
                self._send("(exit)")
                self.proc.wait(timeout=2)
            except Exception:
                self.proc.kill()
        self.proc = None

    def valid(self, query: Query) -> Verdict:
        try:
            self._ensure_started()
        except OSError as exc:
            return Verdict("unknown", reason=f"backend unavailable: {exc}")
        self.transcript = []
        try:
            self._send("(push 1)")
            for name, sort in query.binders:
                smt_sort = {"int": "Int", "bool": "Bool", "loc": "Int"}[sort.value]
                self._send(f"(declare-const |{name}| {smt_sort})")
            for h in query.hyps:
                self._send(f"(assert {to_smt2(h)})")
            self._send(f"(assert (not {to_smt2(query.goal)}))")
            self._send("(check-sat)")
            answer = self._recv()
            model = None
            if answer == "sat":
                self._send("(get-model)")
                model = self._read_model(dict(query.binders))
            self._send("(pop 1)")
            if answer == "unsat":
                return VALID
            if answer == "sat":
                if model is not None and _model_falsifies(query, model):
                    return Verdict("invalid", model=model)
                return Verdict("invalid", model=None)
            self._dump_transcript()
            return Verdict("unknown", reason=f"backend said {answer!r}")
        except (BrokenPipeError, OSError) as exc:
            self._dump_transcript()
            self.close()
            return Verdict("unknown", reason=f"backend failure: {exc}")

    def _read_model(self, sorts) -> Optional[Dict[str, Union[int, bool]]]:
        # read until the closing paren of the model block, depth-counted
        text = ""
        depth = 0
        started = False
        for _ in range(10000):
            line = self._recv()
            if not line and started:
                break
            text += " " + line
            depth += line.count("(") - line.count(")")
            started = started or "(" in line
            if started and depth <= 0:
                break
        import re

        model: Dict[str, Union[int, bool]] = {}
        pattern = re.compile(
            r"\(define-fun\s+\|?([^|\s]+)\|?\s*\(\)\s+(Int|Bool)\s+([^)]*)\)"
        )
        for name, smt_sort, value in pattern.findall(text):
            value = value.strip()
            if smt_sort == "Bool":
                model[name] = value == "true"
            else:
                if value.startswith("(-"):
                    model[name] = -int(value[2:].strip(" ()"))
                else:
                    try:
                        model[name] = int(value)
                    except ValueError:
                        return None
        return model or None


def _model_falsifies(query: Query, model) -> bool:
    try:
        return all(eval_closed(h, model) for h in query.hyps) and not eval_closed(
            query.goal, model
        )
    except (OracleError, KeyError):
        return False


# ---------------------------------------------------------------------------
# Oracle handle

class Oracle:
    """Validity oracle with a per-handle query cache.  Handles are not
    shareable across threads; create one per worker."""

    def __init__(self, backend: Optional[SmtBackend] = None):
        self.backend = backend
        self.cache: Dict[str, Verdict] = {}
        self.queries = 0

    def valid(self, query: Query, want_model: bool = True) -> Verdict:
        self._check_query(query)
        key = (_canonical(query), want_model)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        self.queries += 1
        if self.backend is not None:
            verdict = self.backend.valid(query)
        else:
            verdict = _decide(query, want_model)
        self.cache[key] = verdict
        return verdict

    def valid_many(
        self,
        binders: Tuple[Tuple[str, Sort], ...],
        hyps: Tuple[RefExpr, ...],
        goals: Sequence[RefExpr],
        want_model: bool = False,
        trusted: bool = False,
    ) -> List[Verdict]:
        """Batched validity under shared hypotheses; hypothesis processing
        is amortized over the goals.  `trusted` skips sort checking and the
        cache for queries assembled from already-checked material (the
        fixpoint solver's candidate sweeps, whose hypotheses change every
        iteration and would miss the cache anyway)."""
        if self.backend is not None:
            return [
                self.valid(Query(binders, hyps, g), want_model) for g in goals
            ]
        if trusted:
            self.queries += len(goals)
            return _decide_many(binders, hyps, goals, want_model)
        keyed = [(_canonical(Query(binders, hyps, g)), want_model) for g in goals]
        missing = [i for i, k in enumerate(keyed) if k not in self.cache]
        if missing:
            for q in (Query(binders, hyps, goals[i]) for i in missing):
                self._check_query(q)
            self.queries += len(missing)
            verdicts = _decide_many(
                binders, hyps, [goals[i] for i in missing], want_model
            )
            for i, v in zip(missing, verdicts):
                self.cache[keyed[i]] = v
        return [self.cache[k] for k in keyed]

    @staticmethod
    def _check_query(query: Query):
        ctx = RefCtx()
        seen = set()
        for name, sort in query.binders:
            if name in seen:
                raise OracleError(f"duplicate binder {name!r} in query")
            seen.add(name)
            ctx = ctx.bind(name, sort)
        for h in query.hyps:
            if contains_kapp(h):
                raise OracleError("unknown predicate in hypothesis")
            if sortcheck(ctx, h) != Sort.BOOL:
                raise OracleError("hypothesis is not boolean")
        if contains_kapp(query.goal):
            raise OracleError("unknown predicate in goal")
        if sortcheck(ctx, query.goal) != Sort.BOOL:
            raise OracleError("goal is not boolean")

    def close(self):
        if self.backend is not None:
            self.backend.close()
