"""Parser and printer tests for the surface language."""

import random

import pytest

from gen import bool_expr, int_expr
from lrcheck.harness import generate_program
from lrcheck.logic import conj
from lrcheck.parser import (
    KEYWORDS,
    ParseError,
    lex,
    parse_expr,
    parse_program,
    parse_refexpr,
    parse_type,
)
from lrcheck.printer import print_expr, print_program, print_refexpr
from lrcheck.syntax import (
    Assign,
    Call,
    Expr,
    If,
    IntLit,
    Let,
    LetNew,
    PVar,
    RecFn,
    Span,
    Unpack,
    Val,
    VarRef,
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


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_program, "fn f {}( int[0] ) -> int[0] :="),
        (parse_expr, "let x ="),
        (parse_refexpr, "v <="),
        (parse_type, "&"),
    ],
)
def test_parse_error_at_the_end_names_the_end_of_input(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert f"1:{len(text) + 1}: unexpected end of input (expected" in str(err.value)


@pytest.mark.parametrize("text", ["entry call add(", "entry call add(1,"])
def test_call_cut_off_at_the_end_names_the_end_of_input(text):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == (
        f"1:{len(text) + 1}: call arguments must be variables or values, "
        "got end of input (expected one of: identifier, value)"
    )


def test_every_expr_node_has_span():
    program = parse_program(DECR)

    def walk(e: Expr):
        assert e.span is not None, f"missing span on {type(e).__name__}"
        for child in _children(e):
            walk(child)

    walk(program.decls[0].fn.body)


def _children(e: Expr):
    from lrcheck.syntax import Assign, Val

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
        case Val(RecFn(_, _, _, body)):
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


def test_printed_refinement_terms_parse_back_to_themselves():
    """Over random terms, including right-nested `||`, `&&` and `-`."""
    failures = []
    for seed in range(2000):
        rng = random.Random(seed)
        if seed % 2:
            e = int_expr(rng, ["a", "b"], depth=4)
        else:
            e = bool_expr(rng, ["a", "b"], ["p", "q"], depth=4)
        if parse_refexpr(print_refexpr(e)) != e:
            failures.append((seed, print_refexpr(e)))
    assert not failures, failures[:3]


def test_a_long_conjunction_prints_on_a_shallow_stack(shallow_stack):
    """`conj` nests on the left; the printer walks such a chain in a loop."""
    atoms = [parse_refexpr("a >= -1"), parse_refexpr("p || !q")] * 2500
    printed = print_refexpr(conj(atoms))
    assert printed.count(" && ") == 4999 and "&& (p || !q) &&" in printed
    assert print_refexpr(parse_refexpr(printed)) == printed


# -- the lexer against a character-by-character reference ------------------------

_PUNCT2 = (":=", "->", "&&", "||", "!=", "<=", ">=")
_PUNCT1 = "-{}()[]<>,.|=!+*&;:"


def _reference_lex(source: str):
    """The tokens of `source` as `(kind, text, line, col)`, ended by eof, or
    the first error as `("error", message, line, col)`, read one character
    at a time.  A word is a run of `str.isalnum` characters and `_` that
    does not start with an ASCII digit; it must start with a letter or `_`."""
    tokens, i, line, col = [], 0, 1, 1
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        j = i + 1
        if source.startswith("//", i):
            while j < len(source) and source[j] != "\n":
                j += 1
            i, col = j, col + (j - i)
            continue
        if ch in "0123456789":
            while j < len(source) and source[j] in "0123456789":
                j += 1
            kind = "int"
        elif ch.isalnum() or ch == "_":
            if not (ch.isalpha() or ch == "_"):
                return ("error", f"unexpected character {ch!r}", line, col)
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            kind = "kw" if source[i:j] in KEYWORDS else "ident"
        elif source[i : i + 2] in _PUNCT2:
            j = i + 2
            kind = source[i:j]
        elif ch in _PUNCT1:
            kind = ch
        else:
            return ("error", f"unexpected character {ch!r}", line, col)
        tokens.append((kind, source[i:j], line, col))
        i, col = j, col + (j - i)
    return tokens + [("eof", "", line, col)]


def _lexed(source: str):
    try:
        return [tuple(tok) for tok in lex(source)]
    except ParseError as exc:
        return ("error", exc.msg, exc.line, exc.col)


LEXER_EDGE_INPUTS = [
    "",
    "// only a comment",
    "// only a comment\n",
    "entry // nothing",
    "entry\t0\t",
    "entry\r\n  let x = 1 in\r\n  x\r\n",
    "let _x = 1 in _x",
    "let x = 1 in # x",
    "let x² = 1 in x",
    "²",
    "let x = ٣ in x",
    "x٣ 12ab 0x1f",
    "a:=b->c&&d||e!=f<=g>=h<i>j-k{}()[],.|=!+*&;:l",
    "/ // /\n/",
    "\n\n\t  \n",
    "fn é ( ) -> int",
    "\x0b",
]


def test_lexer_matches_a_character_by_character_reference():
    import glob

    sources = [open(path).read() for path in sorted(glob.glob("corpus/*/*.lr"))]
    assert len(sources) == 21
    sources += [print_program(generate_program(seed, 10)) for seed in range(300)]
    sources += LEXER_EDGE_INPUTS
    for source in sources:
        assert _lexed(source) == _reference_lex(source), source

