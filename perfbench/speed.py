"""Machine-speed reference for the benchmark.

The machine this benchmark was written on is a 2-core VM shared with other
tenants.  Its speed for pure-Python work switches between modes up to 2x
apart, and a mode can last from a fraction of a second to minutes, longer
than a run.  No repetition scheme inside a run can remove that.  So the
benchmark times a fixed 2 ms pure-Python task after every operation, and
multiplies each operation's time by REF_MS over the fastest of the task's
timings near it (`scale_at`): a time at the speed the machine has when
nothing else loads it.  The unscaled figures are kept in the result file.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# The task's fastest time on the unloaded machine (2-core VM, CPython 3.11).
REF_MS = 2.0
# An operation is scaled by the fastest of the reference timings within
# WINDOW places of the one taken right after it.
WINDOW = 2


@dataclass(frozen=True)
class _Node:
    op: str
    lhs: object
    rhs: object


def _build(depth: int):
    if depth == 0:
        return depth + 2
    return _Node("+" if depth % 2 else "*", _build(depth - 1), _build(depth - 1))


def _eval(node) -> int:
    match node:
        case _Node("+", lhs, rhs):
            return _eval(lhs) + _eval(rhs)
        case _Node(_, lhs, rhs):
            return _eval(lhs) * _eval(rhs) % 1000003
        case _:
            return node


def task() -> int:
    """Tree building, structural matching, dict and string traffic: the
    kinds of work lrcheck's checker and interpreter do."""
    tree = _build(9)
    acc = {i: _eval(tree) for i in range(3)}
    for i in range(2000):
        acc[(i % 53, str(i))] = [i, f"x{i}"]
    return len(acc)


def time_task() -> float:
    """Seconds the task takes, with the collector paused so that the heap
    the measured program left behind does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_at(ref_s, index: int) -> float:
    """REF_MS over the fastest reference timing (in seconds) within WINDOW
    places of `index`."""
    return REF_MS / (1e3 * min(ref_s[max(0, index - WINDOW):index + WINDOW + 1]))
