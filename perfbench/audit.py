"""Audit of the oracle's verdicts with the benchmark's own evaluator of
refinement terms (independent of `lrcheck.oracle.eval_closed`).

* Every Invalid verdict that carries a counter-model must falsify its query:
  all hypotheses true and the goal false under the model.
* For a seeded sample of Valid verdicts over integer (and boolean) variables,
  an exhaustive search of a small box must find no counterexample.
"""

from __future__ import annotations

import itertools
import operator
import random
from typing import Dict, List, Optional, Tuple

BOX = range(-3, 4)  # integer values tried for each variable
MAX_VARS = 4  # Valid queries with more free variables are not sampled
SAMPLE = 40  # Valid verdicts audited per run

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def evaluate(e, env: Dict[str, object]):
    kind = type(e).__name__
    if kind == "Var":
        return env[e.name]
    if kind in ("IntConst", "BoolConst"):
        return e.value
    if kind == "LocConst":
        return e.loc_id
    if kind == "Not":
        return not evaluate(e.arg, env)
    lhs, rhs = evaluate(e.lhs, env), evaluate(e.rhs, env)
    if kind == "Eq":
        return lhs == rhs
    if kind == "BinBool":
        return (lhs and rhs) if e.op == "and" else (lhs or rhs)
    if kind == "BinArith":
        return _ARITH[e.op](lhs, rhs)
    if kind == "Cmp":
        return _CMP[e.op](lhs, rhs)
    raise ValueError(f"cannot evaluate {kind}")


def free_names(e, out: set) -> set:
    kind = type(e).__name__
    if kind == "Var":
        out.add(e.name)
    elif kind == "Not":
        free_names(e.arg, out)
    elif hasattr(e, "lhs"):
        free_names(e.lhs, out)
        free_names(e.rhs, out)
    return out


def falsifies(query, env) -> bool:
    """All hypotheses hold and the goal fails; a model that leaves a free
    variable unassigned falsifies nothing."""
    try:
        return all(evaluate(h, env) for h in query.hyps) and not evaluate(query.goal, env)
    except KeyError:
        return False


def query_vars(query) -> Optional[List[Tuple[str, str]]]:
    """The query's free variables with their sorts, when it can be searched
    exhaustively: at most MAX_VARS, all int or bool, at least one int."""
    names = set()
    for e in query.hyps + (query.goal,):
        free_names(e, names)
    sorts = {n: str(s) for n, s in query.binders}
    if len(names) > MAX_VARS or not names <= sorts.keys():
        return None
    pairs = sorted((n, sorts[n]) for n in names)
    if not any(s == "int" for _, s in pairs) or any(s not in ("int", "bool") for _, s in pairs):
        return None
    return pairs


def counterexample(query) -> Optional[Dict[str, object]]:
    pairs = query_vars(query)
    domains = [BOX if s == "int" else (False, True) for _, s in pairs]
    for values in itertools.product(*domains):
        env = {n: v for (n, _), v in zip(pairs, values)}
        if falsifies(query, env):
            return env
    return None


def audit(verdicts, rng: random.Random) -> Tuple[int, int, List[str]]:
    """`verdicts` yields (query, verdict) pairs.  Returns (models checked,
    Valid verdicts searched, failures)."""
    models, sample, seen, failures = [], [], 0, []
    for query, verdict in verdicts:
        if verdict.model is not None:
            models.append((query, verdict.model))
        elif verdict.is_valid and query_vars(query) is not None:
            seen += 1
            if len(sample) < SAMPLE:
                sample.append(query)
            elif (j := rng.randrange(seen)) < SAMPLE:
                sample[j] = query
    for query, model in models:
        if not falsifies(query, model):
            failures.append(f"counter-model {model} does not falsify {query}")
    for query in sample:
        env = counterexample(query)
        if env is not None:
            failures.append(f"Valid verdict refuted by {env}: {query}")
    return len(models), len(sample), failures
