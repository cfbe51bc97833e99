"""Parser, printer, and substitution tests for the surface language."""

import random

import pytest

from lrcheck.harness import generate_program
from lrcheck.logic import SubstError, free_vars, subst_value_in_expr
from lrcheck.parser import ParseError, parse_expr, parse_program, parse_refexpr
from lrcheck.printer import print_expr, print_program
from lrcheck.syntax import (
    Assign,
    BinArith,
    Call,
    Expr,
    If,
    IntConst,
    IntLit,
    Let,
    LetNew,
    Poison,
    PVar,
    RecFn,
    Span,
    Unpack,
    Val,
    VarRef,
    VecVal,
)

DECR = """
fn decr {}( &mut {v. int[v] | v >= 0} ) -> uninit(1) :=
  rec decr (x) :=
    let y = *x in
    unpack (y, ay) in
    if call gt {ay, 0} (y, 0) {
      x := call sub {ay, 1} (y, 1)
    } else {
      poison
    }
"""


def test_let_new_assign():
    e = parse_expr("let x = new(l) in x := 1")
    assert e == LetNew("x", "l", Assign(PVar("x"), Val(IntLit(1))))


def test_decr_body_has_unpack():
    program = parse_program(DECR)
    assert len(program.decls) == 1
    body = program.decls[0].fn.body
    assert isinstance(body, Let)
    assert isinstance(body.body, Unpack)
    assert body.body.var == "y" and body.body.refvar == "ay"


def test_nested_add_calls_roundtrip():
    e = parse_expr("let t = call add(1, 2) in call add(t, 3)")
    calls = [e.bound, e.body]
    assert all(isinstance(c, Call) for c in calls)
    again = parse_expr(print_expr(e))
    assert again == e


def test_program_roundtrip_decr():
    program = parse_program(DECR)
    assert parse_program(print_program(program)) == program


@pytest.mark.parametrize("seed", range(0, 1000, 1))
def test_generated_roundtrip(seed):
    program = generate_program(seed, budget=6)
    assert parse_program(print_program(program)) == program


def test_parse_error_reports_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_program("fn f {}( int[0] -> int[0] := 1")
    assert err.value.line == 1
    assert err.value.col > 0
    assert err.value.expected


def test_every_expr_node_has_span():
    program = parse_program(DECR)

    def walk(e: Expr):
        assert e.span is not None, f"missing span on {type(e).__name__}"
        for child in _children(e):
            walk(child)

    walk(program.decls[0].fn.body)


def _children(e: Expr):
    from lrcheck.syntax import (
        Assign,
        BorrowMut,
        BorrowShr,
        BorrowStrong,
        Deref,
        Val,
    )

    match e:
        case Let(_, bound, body):
            return [bound, body]
        case LetNew(_, _, body):
            return [body]
        case Unpack(_, _, body):
            return [body]
        case If(c, t, f):
            return [c, t, f]
        case Call(callee, _, args, _):
            return [callee, *args]
        case Assign(_, rhs):
            return [rhs]
        case Val(RecFn(_, _, _, body, _)):
            return [body]
        case _:
            return []


def test_spans_nest_within_parents():
    program = parse_program(DECR)

    def key(span):
        return (span.line, span.col)

    def walk(e: Expr):
        for child in _children(e):
            assert key(e.span) <= key(child.span)
            walk(child)

    walk(program.decls[0].fn.body)


def test_call_args_must_be_avals():
    with pytest.raises(ParseError):
        parse_expr("call f(call g())")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_program("entry 1 2")


def test_negative_literals():
    e = parse_expr("-3")
    assert e == Val(IntLit(-3))
    r = parse_refexpr("a = -1")
    again = parse_refexpr("a = -1")
    assert r == again


# -- value substitution ------------------------------------------------------


def test_subst_variable_case():
    e = parse_expr("x")
    assert subst_value_in_expr(e, "x", IntLit(7)) == Val(IntLit(7))


def test_subst_unpack_dissolves_with_interp():
    e = parse_expr("unpack (x, a) in call gt {a, 0} (x, 0)")
    out = subst_value_in_expr(e, "x", IntLit(5))
    assert out == parse_expr("call gt {5, 0} (5, 0)")


def test_subst_unpack_requires_interpretable_value():
    e = parse_expr("unpack (x, a) in x")
    with pytest.raises(SubstError):
        subst_value_in_expr(e, "x", Poison())


def test_subst_unpack_vec_value_uses_length():
    e = parse_expr("unpack (x, a) in call gt {a, 0} (0, 0)")
    out = subst_value_in_expr(e, "x", VecVal(3, Poison()))
    assert out == parse_expr("call gt {3, 0} (0, 0)")


def test_subst_rec_binder_shadows():
    e = parse_expr("rec f (x) := call f(x)")
    assert subst_value_in_expr(e, "f", IntLit(1)) == e
    assert subst_value_in_expr(e, "x", IntLit(1)) == e


def test_subst_identity_when_not_free():
    rng = random.Random(7)
    for seed in range(50):
        program = generate_program(seed, budget=4)
        entry = program.entry
        name = f"zz{rng.randrange(100)}"
        assert name not in free_vars(entry)
        assert subst_value_in_expr(entry, name, IntLit(3)) == entry


def test_corpus_files_roundtrip():
    import glob

    paths = sorted(
        glob.glob("corpus/accept/*.lr")
        + glob.glob("corpus/reject/*.lr")
        + glob.glob("corpus/mutants/*.lr")
    )
    assert paths
    for path in paths:
        program = parse_program(open(path).read())
        assert parse_program(print_program(program)) == program, path


def test_full_signature_roundtrip():
    src = (
        "fn f {n: int, k: int, l: loc | 0 <= k && k < n | "
        "l -> Vec<{v. int[v] | v >= 0}>[n]}( ptr(l), int[k] ) -> uninit(1); "
        "l -> Vec<{v. int[v] | v >= 0}>[n] := rec f (p i) := poison"
    )
    program = parse_program(src)
    sig = program.decls[0].sig
    assert len(sig.refparams) == 3
    assert len(sig.in_locs) == 1 and len(sig.out_locs) == 1
    assert parse_program(print_program(program)) == program


def _let_chain(e: Expr):
    """The lets of a chain, outermost first, and the chain's final body."""
    lets = []
    while isinstance(e, (Let, LetNew)):
        lets.append(e)
        e = e.body
    return lets, e


def test_long_let_chain_parses_and_roundtrips():
    n = 10_000
    lines = [
        f"let c{i} = new(l{i}) in" if i % 7 == 0 else f"let x{i} = call add(x0, {i}) in"
        for i in range(n)
    ]
    tree = parse_expr("\n".join(lines) + "\nx1")
    lets, body = _let_chain(tree)
    assert len(lets) == n and body == VarRef("x1")
    end = Span(n + 1, 1, n + 1, 3)
    for i, e in enumerate(lets):
        assert isinstance(e, LetNew) == (i % 7 == 0)
        assert e.span == Span(i + 1, 1, end.end_line, end.end_col)

    printed = print_expr(tree)
    assert print_expr(parse_expr(printed)) == printed
    again, body2 = _let_chain(parse_expr(printed))
    assert body2 == body
    for e1, e2 in zip(lets, again, strict=True):
        assert type(e1) is type(e2) and e1.name == e2.name
        assert (e1.bound if isinstance(e1, Let) else e1.locvar) == (
            e2.bound if isinstance(e2, Let) else e2.locvar
        )
