"""Quantifier-free validity checking for ground implications.

The built-in decision procedure covers linear integer arithmetic with
booleans and location equality: validity of `hyps => goal` is decided by
refuting `hyps and not goal` through DNF cube enumeration and
Fourier-Motzkin elimination (with strict inequalities tightened over the
integers, so "unsat" is sound for validity).

There are two entries, and both decide through `_decide_rows`.  The
term-level one (`Oracle.valid`) decides one query at a time, linearized
into DNF cubes of rows (`dnf`): a satisfiable relaxation is Invalid with
the integer point that showed it so, if evaluation confirms that the point
falsifies the query, and otherwise Unknown, unless a query with opaque
products finds a model by enumeration.  `Oracle.valid_many` only loops over
it.  The row-level one (`Oracle.valid_rows`) takes formulas already
linearized and decides goals that share hypotheses together, with no model.
The fixpoint solver linearizes each clause once.  It compiles each
qualifier once into a row template by `cmp_row`, the rule by which `dnf`
makes every comparison a row, so every row is built here; a candidate's
literal is its qualifier's template at the candidate's parameters, keyed
so that equal rows are one goal, decided once.  It asks the term-level
entry about a concrete clause that the rows do not prove.  Each
satisfiable hypothesis cube is deduplicated and its unit-coefficient
equalities are eliminated once, by exact Gaussian substitution; each
negated goal cube then only has those substitutions applied to its own
rows, and a goal row that the cube contradicts or implies row by row is
settled without Fourier-Motzkin.  Each reduced cube also keeps integer
points that satisfy it, found by back-substitution after a satisfiable
elimination; a goal cube whose remaining rows hold at one of them is not
refuted, with no elimination of its own.  A caller that can evaluate a
goal at a point (the fixpoint, for its literals) has it evaluated first at
each kept point, extended through its cube's substitutions: a goal false
at one is Invalid before its negation is built or substituted.

Nonlinear products are abstracted as opaque variables, which keeps Valid
sound and makes some queries Unknown.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from .logic import Bind, RefCtx, contains_kapp, sortcheck
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
MAX_FM_ROWS = 4000
MAX_MODEL_CANDIDATES = 6000

G = TypeVar("G")


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
INVALID = Verdict("invalid")


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


def linear_form(e: RefExpr, prods: Dict[RefExpr, str]) -> LinForm:
    """`e` as coefficients over variables plus a constant.  A product of two
    non-constant factors becomes an opaque variable named in `prods`, one
    name per distinct product term."""
    match e:
        case Var(name):
            return ({name: 1}, 0)
        case IntConst(v):
            return ({}, v)
        case LocConst(l):
            return ({}, l)
        case BinArith("+", l, r):
            return _lin_add(linear_form(l, prods), linear_form(r, prods), 1)
        case BinArith("-", l, r):
            return _lin_add(linear_form(l, prods), linear_form(r, prods), -1)
        case BinArith("*", l, r):
            cl, kl = linear_form(l, prods)
            cr, kr = linear_form(r, prods)
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


def cmp_row(op: str, l: RefExpr, r: RefExpr, prods) -> LinForm:
    """The row of `l op r`, as lhs - rhs + extra <= 0: `<` and `<=` give
    l - r (+ 1), `>` and `>=` give r - l (+ 1).  Every comparison becomes
    a row here, the fixpoint's candidates included."""
    lhs, rhs = (l, r) if op in ("<", "<=") else (r, l)
    coeffs, const = _lin_add(linear_form(lhs, prods), linear_form(rhs, prods), -1)
    return coeffs, const + (1 if op in ("<", ">") else 0)


# Literals: ("le", LinForm) or ("bool", name, value); a cube is a list of
# literals read as their conjunction, and a list of cubes is a DNF.
Literal = Tuple
Cubes = List[List[Literal]]


def dnf(e: RefExpr, positive: bool, sorts: Dict[str, Sort], prods) -> Cubes:
    """DNF cubes of `e` (or of its negation) over linear rows and boolean
    literals.  A chain of `and`/`or` nested on its left operand, as `conj`
    builds it, is walked in a loop, so its length is not bounded by the
    recursion limit."""
    if isinstance(e, BinBool):
        # a conjunction of the operands' cubes crosses them; a disjunction
        # concatenates them
        crossing = (e.op == "and") == positive
        rights = []
        node = e
        while isinstance(node, BinBool) and node.op == e.op:
            rights.append(node.rhs)
            node = node.lhs
        cubes = dnf(node, positive, sorts, prods)
        for rhs in reversed(rights):
            more = dnf(rhs, positive, sorts, prods)
            cubes = _cross(cubes, more) if crossing else cubes + more
            if len(cubes) > MAX_CUBES:
                raise _TooLarge()
        return cubes
    cubes = _atom_cubes(e, positive, sorts, prods)
    if len(cubes) > MAX_CUBES:
        raise _TooLarge()
    return cubes


def all_of(parts: Iterable[Cubes]) -> Cubes:
    """The conjunction of DNFs, under the same size limit as `dnf`."""
    cubes: Cubes = [[]]
    for part in parts:
        if len(part) == 1:
            # the cubes so far are fresh lists: extend them in place
            for cube in cubes:
                cube.extend(part[0])
        else:
            cubes = _cross(cubes, part)
    return cubes


def _atom_cubes(e: RefExpr, positive: bool, sorts: Dict[str, Sort], prods) -> Cubes:
    """DNF cubes of a formula that is not an `and`/`or`."""
    match e:
        case BoolConst(v):
            truth = v if positive else not v
            return [[]] if truth else []
        case Var(name):
            if sorts.get(name) == Sort.BOOL:
                return [[("bool", name, positive)]]
            raise OracleError(f"non-boolean variable {name} used as a formula")
        case Not(a):
            return dnf(a, not positive, sorts, prods)
        case Cmp(op, l, r):
            if not positive:
                op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}[op]
            return [[("le", cmp_row(op, l, r, prods))]]
        case Eq(l, r):
            lsort = _sort_of_term(l, sorts)
            if lsort == Sort.BOOL:
                if positive:
                    both = _cross(
                        dnf(l, True, sorts, prods), dnf(r, True, sorts, prods)
                    )
                    neither = _cross(
                        dnf(l, False, sorts, prods), dnf(r, False, sorts, prods)
                    )
                    return both + neither
                forward = _cross(
                    dnf(l, True, sorts, prods), dnf(r, False, sorts, prods)
                )
                backward = _cross(
                    dnf(l, False, sorts, prods), dnf(r, True, sorts, prods)
                )
                return forward + backward
            ops = ("<=", ">=") if positive else ("<", ">")
            rows = [("le", cmp_row(op, l, r, prods)) for op in ops]
            return [rows] if positive else [[row] for row in rows]
        case KApp(_, _):
            raise OracleError("unknown predicate in oracle query")
        case _:
            raise OracleError(f"not a formula: {e!r}")


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

def _keep_tightest(
    best: Dict[frozenset, LinForm], rows: Iterable[LinForm]
) -> Dict[frozenset, LinForm]:
    """Add `rows` to `best` and return it, keeping only the tightest row per coefficient
    vector (coeffs.x + c <= 0 with larger c subsumes smaller).  Every row
    built here carries no zero coefficient, so equal vectors have equal
    keys."""
    for coeffs, const in rows:
        key = frozenset(coeffs.items())
        prev = best.get(key)
        if prev is None or const > prev[1]:
            best[key] = (coeffs, const)
    return best


def _dedupe(rows: List[LinForm]) -> List[LinForm]:
    return list(_keep_tightest({}, rows).values())


# var := coeffs . vars + const
Substitution = Tuple[str, Dict[str, int], int]
# a goal's point, the booleans of its cube and goal cube, the cube's substitutions
Witness = Tuple[Dict[str, int], Dict[str, bool], Sequence[Substitution]]


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


# var -> the keys of the rows that bound it from above (positive
# coefficient) and from below (negative coefficient)
Occurrences = Dict[str, Tuple[set, set]]


def _fm_insert(
    best: Dict[frozenset, LinForm],
    occurs: Occurrences,
    rows: Iterable[LinForm],
    touched: set,
) -> None:
    """`_keep_tightest` that also indexes each new key under its variables
    and adds them to `touched`; a tighter row with a known key changes no
    index."""
    for coeffs, const in rows:
        key = frozenset(coeffs.items())
        prev = best.get(key)
        if prev is None:
            for v, c in coeffs.items():
                occ = occurs.get(v)
                if occ is None:
                    occ = occurs[v] = (set(), set())
                occ[c < 0].add(key)
                touched.add(v)
        elif const <= prev[1]:
            continue
        best[key] = (coeffs, const)


def _fm_unsat(rows: List[LinForm], points: List[Dict[str, int]]) -> bool:
    """True when the system {row <= 0} has no rational solution.  Because
    strict integer comparisons were tightened to non-strict ones, rational
    unsatisfiability is sound for integer unsatisfiability.  Each round
    checks the constant rows and eliminates the variable with the fewest
    upper*lower bound pairs (the first by name among ties), found in a heap
    whose entries are dropped when their count is out of date.  When the
    system is satisfiable, the integer solution that back-substitution
    finds, if it finds one, is appended to `points`.  Past `MAX_FM_ROWS`
    rows created by the eliminations, the query is too large."""
    best: Dict[frozenset, LinForm] = {}
    occurs: Occurrences = {}
    touched: set = set()
    _fm_insert(best, occurs, rows, touched)
    heap: List[Tuple[int, str]] = []
    eliminated: List[Tuple[str, List[LinForm]]] = []
    created = 0
    while True:
        for v in touched:
            occ = occurs.get(v)
            if occ is not None:
                heapq.heappush(heap, (len(occ[0]) * len(occ[1]), v))
        touched.clear()
        constant = best.pop(frozenset(), None)
        if constant is not None and constant[1] > 0:
            return True
        if not best:
            point = _back_substitute(eliminated)
            if point is not None:
                points.append(point)
            return False
        while True:
            product, var = heapq.heappop(heap)
            occ = occurs.get(var)
            if occ is not None and len(occ[0]) * len(occ[1]) == product:
                break
        del occurs[var]
        uppers, lowers = [], []
        for side, keys in zip((uppers, lowers), occ):
            for key in keys:
                row = best.pop(key)
                side.append(row)
                for v, c in row[0].items():
                    if v != var:
                        other = occurs[v]
                        other[c < 0].discard(key)
                        touched.add(v)
                        if not other[0] and not other[1]:
                            del occurs[v]
        eliminated.append((var, uppers + lowers))
        created += len(uppers) * len(lowers)
        if created > MAX_FM_ROWS:
            raise _TooLarge(f"Fourier-Motzkin over {MAX_FM_ROWS} rows")
        new_rows = []
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
        _fm_insert(best, occurs, new_rows, touched)


def _back_substitute(
    eliminated: Sequence[Tuple[str, List[LinForm]]],
) -> Optional[Dict[str, int]]:
    """An integer point of a system that Fourier-Motzkin found satisfiable,
    from its eliminated variables and the rows that bounded each when it
    was eliminated.  In reverse order of elimination, each variable takes
    the integer nearest 0 between its largest lower and smallest upper
    bound.  Every other variable of those rows was eliminated later, so it
    already has a value, or was left in no row, so it is 0 and stays
    unbound.  None when some interval holds no integer."""
    point: Dict[str, int] = {}
    for var, bounding in reversed(eliminated):
        lo = hi = None
        for coeffs, const in bounding:
            # a*var + rest <= 0
            a = coeffs[var]
            rest = const + sum(
                c * point.get(v, 0) for v, c in coeffs.items() if v != var
            )
            if a > 0:
                bound = (-rest) // a
                hi = bound if hi is None else min(hi, bound)
            else:
                bound = -(rest // a)
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None and lo > hi:
            return None
        if lo is not None and lo > 0:
            point[var] = lo
        elif hi is not None and hi < 0:
            point[var] = hi
        else:
            point[var] = 0
    return point


def _holds(point: Dict[str, int], rows: Iterable[LinForm]) -> bool:
    """Every row holds at `point`, where an unbound variable reads as 0."""
    for coeffs, const in rows:
        for v, c in coeffs.items():
            const += c * point.get(v, 0)
        if const > 0:
            return False
    return True


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


def _extend(point: Dict[str, int], subs: Sequence[Substitution]) -> Dict[str, int]:
    """A copy of `point` extended through a cube's substitutions in reverse
    order, so that it satisfies the cube's rows from before they were
    eliminated."""
    point = dict(point)
    for var, lin, k in reversed(subs):
        point[var] = k + sum(c * point.get(v, 0) for v, c in lin.items())
    return point


def _false_at_a_point(reduced, goal: G, holds_at: Callable[[G, Dict[str, int]], bool]):
    """Whether `holds_at` finds the goal false at a point of a reduced
    hypothesis cube; each point is extended through its cube's
    substitutions the first time it is needed, and kept so."""
    for _, _, subs, _, points, extended in reduced:
        for point in points[len(extended):]:
            extended.append(_extend(point, subs))
        for point in extended:
            if not holds_at(goal, point):
                return True
    return False


def _decide_rows(
    hyps: Iterable[Cubes],
    goals: Sequence[G],
    negate: Callable[[G], Cubes],
    witnesses: Optional[Dict[int, Witness]] = None,
    holds_at: Optional[Callable[[G, Dict[str, int]], bool]] = None,
) -> List[Verdict]:
    """Decide goals under shared hypotheses, given as the DNF of each
    hypothesis conjunct and, through `negate`, the DNF of each goal's
    negation.  Both are consumed here, so a DNF over the size limit turns
    into an unknown verdict.  A goal that is not refuted is Invalid with no
    model; `witnesses`, if given, maps its index to the point that settled
    it, if any (see `Witness`).

    `holds_at(goal, point)`, if given, tells whether a goal holds at a
    point over the hypotheses' variables.  A goal false at a stored point
    of some cube, extended through the cube's substitutions, is Invalid
    before its negation is built: that point satisfies the cube and the
    goal's negation.

    Each reduced hypothesis cube keeps integer points of its rows, starting
    with the one its own satisfiability check found.  A goal cube's open
    rows are tested at them, newest first, before any elimination, and a
    satisfiable elimination adds its point.  A point where the open rows
    hold is an integer solution, so the verdict is the one Fourier-Motzkin
    would give, except that a goal whose elimination would have gone over
    `MAX_FM_ROWS` is Invalid instead of unknown."""
    try:
        hyp_cubes = all_of(hyps)
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
            points: List[Dict[str, int]] = []
            if _fm_unsat(rows, points):
                continue
            bounds = {frozenset(c.items()): k for c, k in rows}
            # the last list holds the points extended through `subs`
            reduced.append((bools, rows, subs, bounds, points, []))
    except _TooLarge as exc:
        return [Verdict("unknown", reason=str(exc)) for _ in goals]

    out: List[Verdict] = []
    for index, goal in enumerate(goals):
        if not reduced:
            out.append(VALID)  # hypotheses are unsatisfiable
            continue
        if holds_at is not None and _false_at_a_point(reduced, goal, holds_at):
            out.append(INVALID)
            continue
        try:
            neg_cubes = negate(goal)
        except _TooLarge:
            out.append(Verdict("unknown", reason="goal too large"))
            continue
        neg_splits = [sp for sp in map(_cube_consistent, neg_cubes) if sp is not None]
        refuted = True
        try:
            pairs = itertools.product(reduced, neg_splits)
            for (bools, rows, subs, bounds, points, _), (gbools, grows) in pairs:
                if any(bools.get(n, v) != v for n, v in gbools.items()):
                    continue
                open_rows = _against_cube(grows, subs, bounds)
                if open_rows is None:
                    continue
                # with no goal row left, the cube alone is satisfiable
                held = (p for p in reversed(points) if _holds(p, open_rows))
                point = next(held, None)
                if point is None and open_rows:
                    known = len(points)
                    if _fm_unsat(rows + open_rows, points):
                        continue
                    point = points[-1] if len(points) > known else None
                refuted = False
                # a wanted witness is sought past pairs with no integer point
                if witnesses is None:
                    break
                if point is not None:
                    witnesses[index] = (point, {**bools, **gbools}, subs)
                    break
        except _TooLarge as exc:
            out.append(INVALID if not refuted else Verdict("unknown", reason=str(exc)))
            continue
        out.append(VALID if refuted else INVALID)
    return out


def _decide(query: Query, want_model: bool = True) -> Verdict:
    """Decide one query over its rows.  With `want_model`, an Invalid
    goal's counter-model is the point that settled it; only opaque products
    enumerate assignments, when that point does not falsify the query."""
    sorts = dict(query.binders)
    prods: Dict[RefExpr, str] = {}
    witnesses: Dict[int, Witness] = {}
    (verdict,) = _decide_rows(
        (dnf(h, True, sorts, prods) for h in query.hyps),
        [query.goal],
        lambda goal: dnf(goal, False, sorts, prods),
        witnesses if want_model else None,
    )
    if not want_model or not verdict.is_invalid:
        return verdict
    model = _model_at(query, witnesses[0]) if 0 in witnesses else None
    if model is None and prods:
        model = _search_counter_model(query)
    if model is None:
        return Verdict("unknown", reason="satisfiable relaxation, no integer model found")
    return Verdict("invalid", model=model)


def _falsifies(query: Query, env: Dict[str, Union[int, bool]]) -> bool:
    """The hypotheses hold at `env` and the goal does not."""
    hyps_hold = all(eval_closed(h, env) for h in query.hyps)
    return hyps_hold and not eval_closed(query.goal, env)


def _model_at(query: Query, witness: Witness) -> Optional[Dict[str, Union[int, bool]]]:
    """The witness's point extended through its substitutions in reverse
    order, over the query's binders (an unbound int is 0, an unbound bool
    false), if it falsifies the query."""
    point, bools, subs = witness
    point = _extend(point, subs)
    env: Dict[str, Union[int, bool]] = {
        n: bools.get(n, False) if s == Sort.BOOL else point.get(n, 0)
        for n, s in query.binders
    }
    return env if _falsifies(query, env) else None


def _search_counter_model(query: Query) -> Optional[Dict[str, Union[int, bool]]]:
    """The first of `MAX_MODEL_CANDIDATES` assignments that falsifies the
    query, for factors of opaque products: each int ranges over -2..2 and
    the query's constants and their neighbours, small magnitudes first."""
    consts = {
        x.value if isinstance(x, IntConst) else x.loc_id
        for e in (*query.hyps, query.goal)
        for x in subterms(e)
        if isinstance(x, (IntConst, LocConst))
    }
    near = {c + d for c in consts for d in (-1, 0, 1)}
    candidates = sorted(near.union(range(-2, 3)), key=lambda v: (abs(v), v))
    int_vars = [n for n, s in query.binders if s in (Sort.INT, Sort.LOC)]
    bool_vars = [n for n, s in query.binders if s == Sort.BOOL]
    # nested lazily: `product` would build each of its inputs in full
    assignments = (
        (ints, bools)
        for ints in itertools.product(candidates, repeat=len(int_vars))
        for bools in itertools.product((False, True), repeat=len(bool_vars))
    )
    for ints, bools in itertools.islice(assignments, MAX_MODEL_CANDIDATES):
        env: Dict[str, Union[int, bool]] = dict(zip(int_vars + bool_vars, ints + bools))
        if _falsifies(query, env):
            return env
    return None


# ---------------------------------------------------------------------------
# Oracle handle

class Oracle:
    """Validity oracle over the built-in procedure, with a count of the
    queries asked.  Every call decides its query afresh.  Handles are not
    shareable across threads; create one per worker."""

    def __init__(self):
        self.queries = 0

    def valid(self, query: Query, want_model: bool = True) -> Verdict:
        self._check_query(query)
        self.queries += 1
        return _decide(query, want_model)

    def valid_rows(
        self,
        hyps: Iterable[Cubes],
        goals: Sequence[G],
        negate: Callable[[G], Cubes],
        holds_at: Optional[Callable[[G, Dict[str, int]], bool]] = None,
    ) -> List[Verdict]:
        """Row-level validity of each goal under shared hypotheses, for
        callers that keep their formulas linearized (the fixpoint solver):
        `hyps` yields the DNF of each hypothesis conjunct and `negate` gives
        the DNF of a goal's negation (see `dnf`); `holds_at`, if given,
        evaluates a goal at a point (see `_decide_rows`).  Decided with no
        counter-models: a goal that is not refuted is Invalid.  Counts one
        query per goal."""
        self.queries += len(goals)
        return _decide_rows(hyps, goals, negate, holds_at=holds_at)

    def valid_many(
        self,
        binders: Tuple[Tuple[str, Sort], ...],
        hyps: Tuple[RefExpr, ...],
        goals: Sequence[RefExpr],
    ) -> List[Verdict]:
        """Validity of each goal under the same hypotheses, asked through
        `valid` one goal at a time, without counter-models."""
        return [self.valid(Query(binders, hyps, g), want_model=False) for g in goals]

    @staticmethod
    def _check_query(query: Query):
        seen = set()
        for name, _ in query.binders:
            if name in seen:
                raise OracleError(f"duplicate binder {name!r} in query")
            seen.add(name)
        ctx = RefCtx(tuple(Bind(name, sort) for name, sort in query.binders))
        for h in query.hyps:
            if contains_kapp(h):
                raise OracleError("unknown predicate in hypothesis")
            if sortcheck(ctx, h) != Sort.BOOL:
                raise OracleError("hypothesis is not boolean")
        if contains_kapp(query.goal):
            raise OracleError("unknown predicate in goal")
        if sortcheck(ctx, query.goal) != Sort.BOOL:
            raise OracleError("goal is not boolean")
