"""Parse results pinned: the tree of each corpus file and of the printed
programs of generator seeds 0-299 at budget 10, every node with every
field, spans included, must match the recorded digests; and a table of
malformed inputs must fail with exactly the recorded `ParseError`.

Spans are `compare=False`, so `==` on trees does not see them; the digest
walks `dataclasses.fields` instead.

Regenerate tests/data/parse_golden.json (only when a change of parse
result is intended) with `PYTHONPATH=src python tests/test_parse_golden.py`."""

import dataclasses
import glob
import hashlib
import json
import os
import sys

import pytest

from lrcheck.harness import generate_program
from lrcheck.parser import ParseError, parse_expr, parse_program, parse_refexpr, parse_type
from lrcheck.printer import print_program

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "parse_golden.json")
SEEDS = range(300)
BUDGET = 10


def node_text(tree) -> str:
    """Every node of `tree` with every field value, in pre-order; an
    explicit stack keeps long let-chains clear of the recursion limit."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if dataclasses.is_dataclass(node):
            out.append(type(node).__name__)
            stack.extend(getattr(node, f.name) for f in reversed(dataclasses.fields(node)))
        elif isinstance(node, tuple):
            out.append(f"tuple/{len(node)}")
            stack.extend(reversed(node))
        else:
            out.append(repr(node))
    return " ".join(out)


def tree_digest(source: str) -> str:
    return hashlib.sha256(node_text(parse_program(source)).encode()).hexdigest()[:16]


def _sources():
    for path in sorted(glob.glob("corpus/*/*.lr")):
        with open(path, encoding="utf-8") as handle:
            yield path, handle.read()
    for seed in SEEDS:
        yield f"seed{seed}", print_program(generate_program(seed, BUDGET))


def test_golden_covers_corpus_and_seeds():
    golden = json.load(open(GOLDEN_PATH))
    assert set(glob.glob("corpus/*/*.lr")) <= set(golden)
    assert {f"seed{s}" for s in SEEDS} <= set(golden)


def test_trees_and_spans_match_the_golden_digests():
    golden = json.load(open(GOLDEN_PATH))
    mismatched = [name for name, src in _sources() if tree_digest(src) != golden[name]]
    assert not mismatched


def test_the_digest_sees_spans():
    one, two = parse_program("entry let x = 1 in x"), parse_program("entry  let x = 1 in x")
    assert one == two and node_text(one) != node_text(two)


P, E, R, T = parse_program, parse_expr, parse_refexpr, parse_type

MALFORMED = [
    (P, "entry @", "1:7: unexpected character '@'"),
    (P, "entry 1\n  #2", "2:3: unexpected character '#'"),
    (P, "entry 1 2", "1:9: trailing input '2' (expected one of: end of input, entry, fn)"),
    (P, "entry // nothing", "1:7: unexpected end of input (expected one of: &, *, call, identifier, if, let, unpack, value)"),
    (P, "fn f {}() -> int[0] := 1", "1:1: top-level 'f' must be a rec value"),
    (P, "fn f {x int}() -> int[0] := rec f () := 0", "1:9: unexpected 'int' (expected one of: :)"),
    (P, "fn f {x: real}() -> int[0] := rec f () := 0", "1:10: unexpected 'real' (expected one of: bool, int, loc)"),
    (P, "fn f { 3 }() -> int[0] := rec f () := 0", "1:8: unexpected '3' (expected one of: })"),
    (P, "fn f {}(int[0],) -> int[0] := rec f () := 0", "1:16: unexpected ')' (expected one of: &, Vec, bool, fn, int, ptr, uninit, {)"),
    (P, "fn f {n: int | l ->}() -> int[0] := rec f () := 0", "1:20: unexpected '}' (expected one of: &, Vec, bool, fn, int, ptr, uninit, {)"),
    (P, "fn f {}() int[0] := rec f () := 0", "1:11: unexpected 'int' (expected one of: ->)"),
    (P, "fn f {}() -> int[0]; := rec f () := 0", "1:22: unexpected ':=' (expected one of: identifier)"),
    (P, "entry rec f {n: int (x) := x", "1:21: unexpected '(' (expected one of: })"),
    (P, "entry rec f (x, y) := x", "1:15: unexpected ',' (expected one of: ))"),
    (E, "let x 1 in x", "1:7: unexpected '1' (expected one of: =)"),
    (E, "let x = 1 x", "1:11: unexpected 'x' (expected one of: in)"),
    (E, "unpack (x) in x", "1:10: unexpected ')' (expected one of: ,)"),
    (E, "let x = new l in x", "1:13: unexpected 'l' (expected one of: ()"),
    (E, "if true { 1 } { 2 }", "1:15: unexpected '{' (expected one of: else)"),
    (E, "&own x", "1:2: unexpected 'own' (expected one of: mut, shr, strg)"),
    (E, "call f<>(x)", "1:8: unexpected '>' (expected one of: &, Vec, bool, fn, int, ptr, uninit, {)"),
    (E, "call f<int, Vec<bool>(x)", "1:21: unexpected '>' (expected one of: [)"),
    (E, "call f<int, Vec<bool[1]>(x)", "1:25: unexpected '(' (expected one of: >)"),
    (E, "call f<Vec<int[0]>[>(x)", "1:20: unexpected '>' (expected one of: !, (, -, false, identifier, integer, true)"),
    (E, "call f {}(x)", "1:9: unexpected '}' (expected one of: !, (, -, false, identifier, integer, true)"),
    (E, "call f {a, b(x)", "1:13: unexpected '(' (expected one of: })"),
    (E, "call f(1 + 2)", "1:10: unexpected '+' (expected one of: ))"),
    (E, "call f(a, )", "1:11: call arguments must be variables or values, got ')' (expected one of: identifier, value)"),
    (E, "call f(call g())", "1:8: call arguments must be variables or values, got 'call' (expected one of: identifier, value)"),
    (R, "a < b < c", "1:7: trailing input '<'"),
    (R, "a + b = c != d", "1:11: trailing input '!='"),
    (R, "a && (b || c", "1:13: unexpected end of input (expected one of: ))"),
    (R, "a * * b", "1:5: unexpected '*' (expected one of: !, (, -, false, identifier, integer, true)"),
    (R, "!", "1:2: unexpected end of input (expected one of: !, (, -, false, identifier, integer, true)"),
    (T, "float", "1:1: unexpected 'float' (expected one of: &, Vec, bool, fn, int, ptr, uninit, {)"),
    (T, "int", "1:4: unexpected end of input (expected one of: [)"),
    (T, "int[a < b < c]", "1:11: unexpected '<' (expected one of: ])"),
    (T, "Vec<int[1]", "1:11: unexpected end of input (expected one of: >)"),
    (T, "{v. real[v] | v > 0}", "1:5: unexpected 'real' (expected one of: Vec, bool, int)"),
    (T, "{v. int[w] | v > 0}", "1:1: existential index must repeat binder 'v'"),
    (T, "{v. Vec<int[0]>[v] v > 0}", "1:20: unexpected 'v' (expected one of: |)"),
    (T, "&own int[0]", "1:2: unexpected 'own' (expected one of: mut, shr)"),
    (T, "uninit(x)", "1:8: unexpected 'x' (expected one of: int)"),
    (T, "ptr(3)", "1:5: unexpected '3' (expected one of: identifier)"),
]


@pytest.mark.parametrize(
    "parse, text, message", MALFORMED, ids=[text for _, text, _ in MALFORMED]
)
def test_malformed_input_fails_with_the_recorded_error(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


if __name__ == "__main__":
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    digests = {name: tree_digest(src) for name, src in _sources()}
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n")
        handle.write(
            ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in digests.items())
        )
        handle.write("\n}\n")
    print(f"wrote {len(digests)} programs to {GOLDEN_PATH}", file=sys.stderr)
