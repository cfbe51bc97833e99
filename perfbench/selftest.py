"""Self-test of the benchmark's checks.  Each workload is fed one correct
item and one with a wrong expectation, and must count exactly one failed
operation; the oracle audit must refute a forged counter-model and a forged
Valid verdict, and pass the oracle's own verdict.  A check that cannot fail
proves nothing.

    python3 perfbench/selftest.py      # exit 0 when every check bites
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys

from audit import audit
from run import ROOT, Tally, load_lrcheck, run_round
from workloads import WORKLOADS, Item


def count_failures(lr, label, items, op, want) -> bool:
    tally = Tally()
    run_round(lr, items, op, random.Random(0), [[] for _ in items], tally, [])
    ok = tally.failed == want
    print(f"{'ok' if ok else 'MISSED'}  {label}: {tally.failed} of "
          f"{tally.attempted} operations failed, expected {want}")
    for line in tally.errors:
        print(f"      {line}")
    return ok


def off_by_one(item: Item) -> Item:
    return dataclasses.replace(item, expect=item.expect + 1)


def main() -> int:
    lr = load_lrcheck()
    ok = True

    build, op = WORKLOADS["corpus"]
    items = build(lr, ROOT)
    accept = next(i for i in items if i.expect == 0)
    flipped = dataclasses.replace(accept, expect=1)
    ok &= count_failures(lr, "corpus verdict flipped", [accept, flipped], op, 1)

    build, op = WORKLOADS["sweep"]
    items = build(lr, ROOT)
    with open(os.path.join(ROOT, "corpus", "reject", "neg_into_nat.lr"), encoding="utf-8") as f:
        rejected = Item("neg_into_nat", lr.parser.parse_program(f.read()), None)
    ok &= count_failures(lr, "sweep fed a rejected program", [items[0], rejected], op, 1)

    for name in ("long", "borrow"):
        build, op = WORKLOADS[name]
        first = build(lr, ROOT)[0]
        ok &= count_failures(lr, f"{name} value off by one", [first, off_by_one(first)], op, 1)

    syntax, oracle = lr.syntax, lr.oracle
    x = syntax.Var("x")
    query = oracle.Query(
        (("x", syntax.Sort.INT),),
        (syntax.Cmp(">=", x, syntax.IntConst(0)),),
        syntax.Cmp(">", x, syntax.IntConst(0)),
    )
    own = oracle.Oracle().valid(query)
    forged = [
        (query, own),
        (query, oracle.Verdict("invalid", model={"x": 3})),
        (query, oracle.Verdict("valid")),
    ]
    models, valid, failures = audit(forged, random.Random(0))
    caught = own.is_invalid and len(failures) == 2
    print(f"{'ok' if caught else 'MISSED'}  audit: {len(failures)} of {models + valid} "
          f"verdicts refuted, expected 2 (forged model, forged Valid)")
    for line in failures:
        print(f"      {line}")
    ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
