"""The benchmark's four workloads: how each builds its inputs and runs one
operation (one program through the workload's whole pipeline), and how it
checks the outcome against an expectation computed apart from lrcheck.

Every operation returns ``(check_s, run_s)``, or raises ``Mismatch`` when
its output is wrong.  ``run_s`` is ``None`` where the workload never runs
the interpreter.
"""

from __future__ import annotations

import contextlib
import glob
import io
import os
import random
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

# Every workload checks a fixed population of programs, so that every run
# and every commit measures the same work; the run's seed only orders the
# rounds.  Generator seeds and budget of the `sweep` programs:
SWEEP_SEEDS = range(60)
SWEEP_BUDGET = 10
# Let counts of the `long` programs (the parser's recursion limit is near
# 490); each program's statement mix is drawn from its length.
LONG_LENGTHS = (100, 150, 200, 250, 300)
# Number of successive `&mut` borrows in the `borrow` programs.
BORROW_NS = (5, 6, 7, 8)


class Mismatch(Exception):
    """An operation's output differs from what the benchmark expected."""


@dataclass
class Item:
    name: str
    payload: Any  # a path (corpus), a Program (sweep) or source text
    expect: Any  # exit code (corpus), None (sweep) or the final int value


# ---------------------------------------------------------------------------
# corpus: `lrcheck check FILE` in process, one call per file


def corpus_items(lr, root: str) -> List[Item]:
    items = []
    for path in sorted(glob.glob(os.path.join(root, "corpus", "*", "*.lr"))):
        with open(path + ".expect", encoding="utf-8") as handle:
            expect = handle.read().split()
        if expect[:1] != ["exit:"]:
            raise ValueError(f"{path}.expect: no 'exit:' line")
        items.append(Item(os.path.relpath(path, root), path, int(expect[1])))
    if not items:
        raise FileNotFoundError(f"no corpus programs under {root}/corpus")
    return items


def corpus_op(lr, item: Item) -> Tuple[float, Optional[float]]:
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
        code = lr.cli.main(["check", item.payload])
    t1 = time.perf_counter()
    if code != item.expect:
        raise Mismatch(f"exit {code}, expected {item.expect}")
    return t1 - t0, None


# ---------------------------------------------------------------------------
# sweep: what `lrcheck soundness` does for one seed, with a fresh oracle


def sweep_items(lr, root: str) -> List[Item]:
    return [
        Item(f"seed{s}", lr.harness.generate_program(s, SWEEP_BUDGET), None)
        for s in SWEEP_SEEDS
    ]


def sweep_op(lr, item: Item) -> Tuple[float, Optional[float]]:
    program = item.payload
    oracle = lr.oracle.Oracle()
    t0 = time.perf_counter()
    report = lr.typeck.check_program(program, oracle=oracle)
    t1 = time.perf_counter()
    if not report.ok:
        raise Mismatch("checker rejected a generated program")
    verdict = lr.harness.run_and_verify(program, report=report, oracle=oracle)
    t2 = time.perf_counter()
    if not verdict.passed:
        raise Mismatch(f"soundness {verdict.kind}: {verdict.detail}")
    return t1 - t0, t2 - t1


# ---------------------------------------------------------------------------
# long and borrow: straight-line programs the benchmark writes itself, with
# the final value computed here in Python


def long_source(n_lets: int, rng: random.Random) -> Tuple[str, int]:
    """A let-chain of about `n_lets` lets mixing `add` steps with strong
    cell writes and reads.  Every `add` joins the chain value with a
    constant or with a cell holding a constant, so no index term grows
    faster than the program: index terms are copied as trees, and a chain
    of `add(x, x)` takes time exponential in its length to check."""
    c0 = rng.randrange(10)
    lines = ["let x0 = 0 in", "let s = new(ls) in", "let w0 = s := 0 in",
             "let c0 = new(lc0) in", f"let u0 = c0 := {c0} in"]
    cells = {"c0": c0}  # cell name -> the constant it holds
    x = value = k = 0
    while len(lines) < n_lets - 1:
        r = rng.random()
        k += 1
        if r < 0.15:
            c = rng.randrange(10)
            lines.append(f"let c{k} = new(lc{k}) in")
            lines.append(f"let w{k} = c{k} := {c} in")
            cells[f"c{k}"] = c
        elif r < 0.55:
            c = rng.randrange(10)
            lines.append(f"let x{x + 1} = call add(x{x}, {c}) in")
            x, value = x + 1, value + c
        elif r < 0.7:
            cell, c = rng.choice(sorted(cells)), rng.randrange(10)
            lines.append(f"let w{k} = {cell} := {c} in")
            cells[cell] = c
        elif r < 0.85:
            cell = rng.choice(sorted(cells))
            lines.append(f"let m{k} = *{cell} in")
            lines.append(f"let x{x + 1} = call add(x{x}, m{k}) in")
            x, value = x + 1, value + cells[cell]
        else:
            lines.append(f"let w{k} = s := x{x} in")
    lines.append(f"let w = s := x{x} in")
    lines.append("*s")
    return "entry\n  " + "\n  ".join(lines) + "\n", value


def long_items(lr, root: str) -> List[Item]:
    items = []
    for n in LONG_LENGTHS:
        source, value = long_source(n, random.Random(n))
        items.append(Item(f"lets{n}", source, value))
    return items


def borrow_source(n: int) -> str:
    """n successive `&mut` borrows of one cell, each incrementing it once."""
    lines = ["let c = new(lc) in", "let t0 = c := 0 in"]
    for i in range(1, n + 1):
        lines.append(f"let r{i} = &mut c in")
        lines.append(f"let y{i} = *r{i} in")
        lines.append(f"let u{i} = r{i} := call add(y{i}, 1) in")
    lines.append("*c")
    return "entry\n  " + "\n  ".join(lines) + "\n"


def borrow_items(lr, root: str) -> List[Item]:
    return [Item(f"borrows{n}", borrow_source(n), n) for n in BORROW_NS]


def straight_op(lr, item: Item) -> Tuple[float, Optional[float]]:
    oracle = lr.oracle.Oracle()
    t0 = time.perf_counter()
    program = lr.parser.parse_program(item.payload)
    report = lr.typeck.check_program(program, oracle=oracle)
    t1 = time.perf_counter()
    if not report.ok:
        raise Mismatch("checker rejected the program")
    verdict = lr.harness.run_and_verify(program, report=report, oracle=oracle)
    t2 = time.perf_counter()
    if not verdict.passed:
        raise Mismatch(f"soundness {verdict.kind}: {verdict.detail}")
    outcome = verdict.outcome
    if outcome.kind != "done":
        raise Mismatch(f"run ended {outcome.kind}, expected done")
    if outcome.value != lr.syntax.IntLit(item.expect):
        raise Mismatch(f"value {outcome.value}, expected {item.expect}")
    return t1 - t0, t2 - t1


# name -> (build the items, run one item)
WORKLOADS = {
    "corpus": (corpus_items, corpus_op),
    "sweep": (sweep_items, sweep_op),
    "long": (long_items, straight_op),
    "borrow": (borrow_items, straight_op),
}
