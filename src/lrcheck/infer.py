"""The liquid fixpoint solver over linear rows: it solves the
unknown-predicate templates that the checker (`typeck`) makes at joins,
borrows, vector elements and loop signatures."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .constraints import (
    META,
    NU,
    Candidate,
    Clause,
    Constraint,
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
from .logic import conj, subst_parallel
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
from .syntax import Cmp, Eq, KApp, KVarDecl, RefExpr, Sort


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
# An integer qualifier's template is compiled into the row
# `k + a*NU + b*META` of such a literal over the reserved names `NU` and
# `META` (`_template_row`), looked up per candidate from a table that
# `_Candidates` builds once per solve, and a candidate's literal is that row with the
# two names replaced by its parameters, put in canonical order and sign.
# A template that is a term, or whose row mentions any other name, is not
# compiled, and neither is a boolean qualifier: a candidate of either has
# its term as its literal, since instantiating the template keeps its
# top-level form, its products and its boolean operands.  Otherwise a
# candidate's term is built only for the survivors, which `Solution`
# needs.
#
# `terms` is a sorted tuple of (parameter, coefficient) pairs, and an
# equality's first coefficient is positive, so a literal is its own
# canonical key: `a <= b` and `b >= a` give one literal, and so do
# `a = b + 1` and `b = a - 1`.  The fixpoint decides each distinct literal
# of a kvar once and deletes all its candidates with it.  A row fails
# exactly when -row + 1 <= 0.  A kvar application maps each parameter to
# its argument, an integer argument as its linear form; substituting a
# literal splices the argument forms into its row.
#
# Every sweep first filters the head kvar's kept candidates at the sample
# points of the clause's hypotheses (`_Candidates.sample`): each integer
# argument is evaluated once per point, and a candidate whose qualifier
# template is a row `k + a*NU + b*META` is dropped when that row, at its
# parameters' values, fails at a point.  Only the survivors are asked, and
# literals not built yet are built for them alone.


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
def _template_row(template: RefExpr) -> Optional[Tuple[bool, int, int, int]]:
    """An integer qualifier's template, over `NU` and `META`, as the row
    `k + a*NU + b*META` of an integer comparison, given as whether it is an
    equality, k, a and b; None when it is not one."""
    lit = _literal(template, {NU: Sort.INT, META: Sort.INT})
    if lit[0] == "term":
        return None
    kind, terms, k = lit
    coeffs = dict(terms)
    return kind == "eq", k, coeffs.get(NU, 0), coeffs.get(META, 0)


def _candidate_literals(
    cands: Sequence[Candidate], rows: Dict[int, Optional[Tuple]]
) -> Iterator[Tuple]:
    """The literal of each candidate, given each qualifier's template row
    in `rows` by the qualifier's id (see `_Candidates`).  A template row's
    literal is that row at the candidate's parameters, ordered and signed
    as `_row_literal` does; any other candidate's is its term."""
    for cand in cands:
        q, nu, meta = cand
        template = rows[id(q)]
        if template is None:
            yield ("term", instance(cand))
            continue
        eq, k, a, b = template
        if a and b:
            terms = ((nu, a), (meta, b)) if nu < meta else ((meta, b), (nu, a))
        else:
            terms = ((nu, a),) if a else ((meta, b),) if b else ()
        if eq and terms and terms[0][1] < 0:
            terms = tuple((p, -c) for p, c in terms)
            k = -k
        yield ("eq" if eq else "le", terms, k)


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


class _Candidates:
    """The fixpoint's state: each kvar's kept candidates, and its distinct
    literals with the index of each candidate's literal among them, built
    when a clause first needs them, for a sweep's head kvar after its
    candidates are filtered at sample points (`sample`).  Deleting a
    literal deletes every candidate that has it."""

    def __init__(self, kvars: Sequence[KVarDecl], quals: Sequence[Qualifier]):
        self.kept: Dict[str, List[Candidate]] = {
            k.name: instantiations(k, quals) for k in kvars
        }
        self._literals: Dict[str, Tuple[List[Tuple], List[int]]] = {}
        # each qualifier's `_template_row` by its id, None for a boolean one
        self.rows: Dict[int, Optional[Tuple]] = {
            id(q): _template_row(q.template) if q.sort is Sort.INT else None
            for q in quals
        }

    def sample(self, app: "_App", points: Sequence[Dict[str, int]]) -> List[Tuple]:
        """Drop each kept candidate of the application's kvar whose
        literal, substituted at `app`, is false at one of `points`, and
        return the kvar's distinct literals, built for the survivors only
        if they were not built yet.  Each integer argument of `app` is
        evaluated once per point, and a candidate whose qualifier compiles
        to a template row is tested at those values with integer arithmetic
        alone; any other candidate is kept.  Equal row literals are equal
        rows at the same values, and a candidate with no template row has a
        term literal, so all the candidates of a literal go or stay
        together."""
        name = app.kvar
        if points:
            values = {
                p: [k + sum(x * pt.get(v, 0) for v, x in coeffs.items()) for pt in points]
                for p, (coeffs, k) in app.lins.items()
            }
            zeros = [0] * len(points)
            rows = self.rows
            mask: List[bool] = []
            for q, nu, meta in self.kept[name]:
                test = rows[id(q)]
                if test is None:
                    mask.append(True)
                    continue
                eq, k, a, b = test
                for x, y in zip(values[nu], values[meta] if b else zeros):
                    row = k + a * x + b * y
                    if row if eq else row > 0:
                        mask.append(False)
                        break
                else:
                    mask.append(True)
            if not all(mask):
                self._prune(name, mask)
        return self.literals(name)

    def _compiled(self, name: str) -> Tuple[List[Tuple], List[int]]:
        entry = self._literals.get(name)
        if entry is None:
            index: Dict[Tuple, int] = {}
            owner = [
                index.setdefault(lit, len(index))
                for lit in _candidate_literals(self.kept[name], self.rows)
            ]
            entry = self._literals[name] = (list(index), owner)
        return entry

    def literals(self, name: str) -> List[Tuple]:
        """The kvar's distinct literals, in the order of their first
        candidate."""
        return self._compiled(name)[0]

    def keep(self, name: str, valid: Sequence[bool]) -> None:
        """Keep the candidates whose literal is valid, by the literals'
        order."""
        self._prune(name, [valid[o] for o in self._compiled(name)[1]])

    def _prune(self, name: str, mask: Sequence[bool]) -> None:
        """Keep the candidates that `mask` marks, and, if the literals are
        built, the literals of those candidates, in the same order."""
        self.kept[name] = list(compress(self.kept[name], mask))
        entry = self._literals.get(name)
        if entry is not None:
            lits, owner = entry
            renumber: Dict[int, int] = {}
            owners = [
                renumber.setdefault(o, len(renumber)) for o in compress(owner, mask)
            ]
            self._literals[name] = ([lits[o] for o in renumber], owners)

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


def _topological_ranks(edges: Dict[str, List[str]]) -> Dict[str, int]:
    """The rank of each node's strongly connected component of the graph
    `edges` (every node a key), numbered in topological order: an edge
    never goes to a lower rank.  Tarjan's algorithm with an explicit stack,
    so a long chain needs no recursion; it finishes a component after every
    component it reaches, so the finishing order reversed is the rank."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    finished: Dict[str, int] = {}  # node -> its component, by finishing order
    stack: List[str] = []
    components = 0
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        path = [(root, iter(edges[root]))]
        while path:
            node, succs = path[-1]
            for succ in succs:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    path.append((succ, iter(edges[succ])))
                    break
                if succ not in finished:
                    low[node] = min(low[node], index[succ])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        finished[member] = components
                        if member == node:
                            break
                    components += 1
    return {node: components - 1 - c for node, c in finished.items()}


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

    The worklist sweeps clauses in dependency order: by the strongly
    connected component of their head kvar, upstream first, in the graph
    with an edge from each kvar a clause assumes to the kvar it defines,
    and within a component in clause order.  So a clause is queued again
    only when a kvar of its own component shrank, and a kvar outside any
    cycle gets one sweep per defining clause.

    Every clause is linearized once, and a kvar's candidates once, when a
    clause first needs that kvar.  A sweep passes `Oracle.valid_rows` the
    head kvar's goals as a function of the integer points that the oracle
    keeps for each satisfiable hypothesis cube, extended and spread: the
    function drops each kept candidate false at one with integer
    arithmetic, before a literal not built yet is built, and gives the
    survivors' distinct literals, each asked once under the spliced rows of
    the hypothesis kvars' distinct literals.  A dropped candidate counts as
    a deletion, as it would if it were asked, since the point refutes it.
    Each concrete-headed clause is asked under the final kept candidates.
    Only a concrete clause the rows do not prove is built as a term and
    decided by `Oracle.valid`, which gives the verdict, reason and
    counter-model."""
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

    # a clause's heap entry: its head kvar's component rank, upstream
    # first, then its position in `cls`, which is its cid
    rank = _topological_ranks(
        {name: [c.head.kvar.name for c in deps] for name, deps in dependents.items()}
    )
    entries = {c.cid: (rank[c.head.kvar.name], c.cid, c) for c in kvar_clauses}
    worklist = list(entries.values())
    heapq.heapify(worklist)

    # termination: every re-enqueue follows at least one deletion, and the
    # total deletion budget is the number of initial candidates
    budget = sum(len(v) for v in cands.kept.values())
    deletions = 0
    sweeps = 0
    queued = {c.cid for c in kvar_clauses}
    while worklist:
        _, _, clause = heapq.heappop(worklist)
        queued.discard(clause.cid)
        sweeps += 1
        assert sweeps <= len(kvar_clauses) * (budget + 1), "fixpoint did not descend"
        rows = compiled[clause.cid]
        head = rows.head
        before = len(cands.kept[head.kvar])
        if not before:
            continue
        verdicts = oracle.valid_rows(
            rows.hyp_cubes(cands), partial(cands.sample, head), head.negated
        )
        valid = [v.is_valid for v in verdicts]
        if not all(valid):
            cands.keep(head.kvar, valid)
        deleted = before - len(cands.kept[head.kvar])
        if deleted:
            deletions += deleted
            for dep in dependents[head.kvar]:
                if dep.cid not in queued:
                    queued.add(dep.cid)
                    heapq.heappush(worklist, entries[dep.cid])

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
