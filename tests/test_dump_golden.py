"""Dumps pinned: `lrcheck check --dump-constraints --dump-solution` on each
corpus file (stdout, stderr and exit code, run in process) and the clause
dump of every unit of generator seeds 0-299 at budget 10 must match the
recorded digests.

Regenerate tests/data/dump_golden.json (only when a change of output is
intended) with `PYTHONPATH=src python tests/test_dump_golden.py`."""

import contextlib
import glob
import hashlib
import io
import json
import os
import sys

from lrcheck import cli
from lrcheck.constraints import dump_clauses_text
from lrcheck.harness import generate_program
from lrcheck.typeck import check_program

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "dump_golden.json")
SEEDS = range(300)
BUDGET = 10


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_digest(path: str) -> str:
    """Digest of the dumping `check` of one file: stdout, stderr, exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", path, "--dump-constraints", "--dump-solution"])
    return _sha(f"{out.getvalue()}\0{err.getvalue()}\0{code}")


def clause_digests(seed: int):
    """One digest per unit of a generated program, in unit order."""
    report = check_program(generate_program(seed, BUDGET), run_solver=False)
    return [
        _sha(f"{unit.name}\0{unit.status}\0{dump_clauses_text(unit.clauses)}")
        for unit in report.units
    ]


def _digests():
    for path in sorted(glob.glob("corpus/*/*.lr")):
        yield path, check_digest(path)
    for seed in SEEDS:
        yield f"seed{seed}", clause_digests(seed)


def test_golden_covers_corpus_and_seeds():
    golden = json.load(open(GOLDEN_PATH))
    names = set(golden)
    assert set(glob.glob("corpus/*/*.lr")) <= names
    assert {f"seed{s}" for s in SEEDS} <= names


def test_dumps_match_the_golden_digests():
    golden = json.load(open(GOLDEN_PATH))
    mismatched = [name for name, digest in _digests() if digest != golden[name]]
    assert not mismatched


if __name__ == "__main__":
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    digests = dict(_digests())
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n")
        handle.write(
            ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in digests.items())
        )
        handle.write("\n}\n")
    print(f"wrote {len(digests)} programs to {GOLDEN_PATH}", file=sys.stderr)
