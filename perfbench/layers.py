"""Outside-in layer trace: spans recorded around lrcheck's public calls by
wrapping them from the benchmark's side.  Nothing under `src/` changes.

A span is ``[layer, parent index, start ns, end ns, note]``.  The note holds
the wrapped name and what the call was given and returned, kept by
reference so that counting costs nothing inside the timed rounds; `counts`
reads the notes once the rounds are over.  A layer's self time is the sum
of its spans' durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple


def _arg(args, kwargs, i: int, name: str, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


class Tracer:
    def __init__(self, lr):
        self.lr = lr
        self.spans: List[list] = []
        self.stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        lr = self.lr
        # (owners of the name, attribute, layer, keep a note of the call).
        # A name is wrapped in every module that imported it.
        table = [
            ((lr.cli,), "main", "cli", False),
            ((lr.parser, lr.cli, lr.harness), "parse_program", "parser", True),
            ((lr.typeck, lr.cli, lr.harness), "check_program", "check_program", False),
            ((lr.typeck.Checker,), "check_fn", "typeck", False),
            ((lr.typeck.Checker,), "check_entry", "typeck", False),
            ((lr.typeck, lr.infer), "normalize", "constraints", False),
            ((lr.typeck,), "constraint_clauses", "constraints", True),
            ((lr.infer,), "clauses", "constraints", False),
            ((lr.typeck, lr.infer), "solve", "infer", True),
            ((lr.oracle.Oracle,), "valid", "oracle", True),
            ((lr.oracle.Oracle,), "valid_many", "oracle", True),
            ((lr.interp, lr.harness), "run", "interp", True),
            ((lr.cli,), "interp_run", "interp", True),
            ((lr.harness, lr.cli), "run_and_verify", "run_and_verify", False),
            ((lr.harness,), "value_conforms", "harness.conform", False),
            ((lr.harness,), "generate_program", "harness.generate", False),
        ]
        for owners, attr, layer, keep in table:
            for owner in owners:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, attr, layer, keep))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, attr: str, layer: str, keep: bool) -> Callable:
        spans, stack = self.spans, self.stack
        is_oracle = layer == "oracle"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the oracle's query counter tells cache hits from decided goals
            queries = args[0].queries if is_oracle else 0
            span = [layer, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if keep:
                decided = args[0].queries - queries if is_oracle else 0
                span[4] = (attr, args, kwargs, result, decided)
            return result

        return traced

    # -- after the timed rounds ------------------------------------------------

    def self_ms(self) -> Dict[str, float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        out: Dict[str, float] = Counter()
        for s, ns in zip(self.spans, own):
            out[s[0]] += ns / 1e6
        return out

    def oracle_verdicts(self):
        """Yield ([(query, verdict)], cacheable, goals decided) per oracle
        call; the goals not decided in the call were cache hits."""
        Query = self.lr.oracle.Query
        for *_, note in self.spans:
            if note is None:
                continue
            attr, args, kwargs, result, decided = note
            if attr == "valid":
                query = _arg(args, kwargs, 1, "query")
                yield [(query, result)], True, decided
            elif attr == "valid_many":
                binders, hyps = args[1], args[2]
                goals = _arg(args, kwargs, 3, "goals")
                trusted = _arg(args, kwargs, 5, "trusted", False)
                pairs = [(Query(binders, hyps, g), v) for g, v in zip(goals, result)]
                yield pairs, not trusted, decided

    def counts(self) -> Counter:
        c: Counter = Counter()
        cons = self.lr.constraints
        for *_, note in self.spans:
            if note is None:
                continue
            attr, args, kwargs, result, _ = note
            if attr == "parse_program":
                c["parser.chars"] += len(_arg(args, kwargs, 0, "source"))
            elif attr == "constraint_clauses":
                c["constraints.clauses"] += len(result)
            elif attr == "solve":
                c["infer.solves"] += 1
                c["infer.sweeps"] += result.sweeps
                c["infer.deletions"] += result.deletions
                quals = _arg(args, kwargs, 1, "quals")
                kvars = cons.kvars_of(cons.normalize(_arg(args, kwargs, 0, "constraint")))
                c["constraints.kvars"] += len(kvars)
                c["infer.instantiations"] += sum(
                    len(cons.instantiations(k, quals)) for k in kvars
                )
            elif attr in ("run", "interp_run"):
                c["interp.steps"] += result.steps
                if result.state is not None:
                    c["interp.trace_events"] += len(result.state.trace)
        for pairs, cacheable, decided in self.oracle_verdicts():
            c["oracle.calls"] += 1
            c["oracle.goals"] += len(pairs)
            if cacheable:
                c["oracle.cacheable_goals"] += len(pairs)
                c["oracle.cache_hits"] += len(pairs) - decided
            for _, verdict in pairs:
                c["oracle.valid"] += verdict.is_valid
                c["oracle.unknowns"] += verdict.is_unknown
                c["oracle.models"] += verdict.model is not None
        return c
