"""Fixpoint output pinned: every corpus unit, generator seeds 0-299 at
budget 10 and chains of 5 to 8 successive `&mut` borrows must solve to the
recorded status, sweep and deletion counts, solution and counter-model.

tests/data/solve_golden.json holds, for each unit, its sweep count in the
clear and a digest of the other fields, so a change of worklist order shows
as changed numbers while the fixpoint itself stays pinned.  The file was
first written by the term-level solver that the row-level one replaced;
regenerate it (only when a change of output is intended) with
`PYTHONPATH=src python tests/test_solve_golden.py`."""

import glob
import hashlib
import json
import os
import sys

from gen import borrow_chain
from lrcheck.constraints import default_qualifiers
from lrcheck.harness import generate_program
from lrcheck.infer import solve
from lrcheck.oracle import Oracle
from lrcheck.parser import parse_program
from lrcheck.typeck import check_program

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "solve_golden.json")
SEEDS = range(300)
BUDGET = 10
BORROWS = range(5, 9)


def _programs():
    for path in sorted(glob.glob("corpus/*/*.lr")):
        yield path, parse_program(open(path).read())
    for seed in SEEDS:
        yield f"seed{seed}", generate_program(seed, BUDGET)
    for n in BORROWS:
        yield f"borrow{n}", parse_program(borrow_chain(n))


def _pinned(result) -> list:
    """The unit's sweep count and a digest of its status, deletions,
    solution, counter-model, reason and failed clause."""
    failed = result.failed_clause
    parts = [
        result.status,
        str(result.deletions),
        result.solution.dump(),
        repr(sorted((result.counterexample or {}).items())),
        result.reason,
        str(failed.cid if failed is not None else None),
    ]
    return [result.sweeps, hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]]


def solve_digests(program):
    """One `_pinned` pair per unit that reached the solver, in unit order."""
    report = check_program(program, run_solver=False)
    quals = default_qualifiers()
    oracle = Oracle()
    return [
        _pinned(solve(unit.constraint, quals, oracle))
        for unit in report.units
        if unit.status != "error"
    ]


def test_golden_covers_corpus_and_seeds():
    golden = json.load(open(GOLDEN_PATH))
    names = set(golden)
    assert {p for p in glob.glob("corpus/*/*.lr")} <= names
    assert {f"seed{s}" for s in SEEDS} <= names
    assert {f"borrow{n}" for n in BORROWS} <= names


def test_solve_matches_the_golden_digests():
    golden = json.load(open(GOLDEN_PATH))
    mismatched = [
        name
        for name, program in _programs()
        if solve_digests(program) != golden[name]
    ]
    assert not mismatched


if __name__ == "__main__":
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    digests = {name: solve_digests(program) for name, program in _programs()}
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n")
        handle.write(
            ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in digests.items())
        )
        handle.write("\n}\n")
    print(f"wrote {len(digests)} programs to {GOLDEN_PATH}", file=sys.stderr)
