import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def shallow_stack():
    """Set the recursion limit to 200 frames above the current depth for
    one test, so that code recursing once per `let`, `unpack` or context
    entry fails on a few hundred of them, and fast."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    yield
    sys.setrecursionlimit(old)


_CRITERIA = {}

_DESCRIPTIONS = {
    "test_criterion_1_decr": "decr: one nontrivial clause, valid; mutant rejected",
    "test_criterion_2_ref_join": "ref_join: join shape over three unknowns, all v >= 0",
    "test_criterion_3_make_vec": "make_vec: three-clause dump, both unknowns v > 0",
    "test_criterion_4_init_zeros": "init_zeros: loop template with b = c, length verifies",
    "test_criterion_5_rejection_suite": "rejection suite: exit 1 with spanned clause diagnostics",
    "test_criterion_6_differential_soundness": "differential soundness: 1000 seeds + corpus, no stuck",
    "test_criterion_7_stack_semantics": "stack discipline: 10^4 events + stale-write alias error",
    "test_criterion_8_lemma_property_suites": "lemma property suites: >= 200 cases each",
    "test_criterion_9_determinism": "determinism: byte-identical dumps",
}


def pytest_runtest_logreport(report):
    name = report.location[2].split("[")[0]
    if name.startswith("test_criterion_") and report.when == "call":
        _CRITERIA[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_CRITERIA):
        outcome = _CRITERIA[name]
        label = "PASS" if outcome == "passed" else "FAIL"
        desc = _DESCRIPTIONS.get(name, name)
        number = name.split("_")[2]
        terminalreporter.write_line(f"  criterion {number}: {label} - {desc}")
