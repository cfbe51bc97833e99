"""Command-line behavior: exit codes, dumps, determinism, config."""

import subprocess
import sys

import pytest

from lrcheck.cli import Config, main, make_qualifiers
from lrcheck.constraints import instance, instantiations
from lrcheck.harness import generate_program, run_and_verify
from lrcheck.parser import parse_program
from lrcheck.parser import parse_refexpr as R
from lrcheck.printer import print_program
from lrcheck.syntax import KVarDecl, Let, Sort, Unpack

RUN = [sys.executable, "-m", "lrcheck.cli"]

# `a * a = 2` has a rational but no integer solution, so the oracle finds
# the relaxation satisfiable, finds no integer model, and cannot decide
SQ = (
    "fn sq {a: int | a * a = 2}( int[a] ) -> {v. int[v] | v >= 0} :=\n"
    "  rec sq (x) := x"
)


# the only counter-models have a > 200 and b > 200, out of the reach of a
# search over small values and the query's constants
DISTANT = (
    "fn f {a: int, b: int | a + b = 1000 && a > 200 && b > 200}"
    "( int[a], int[b] ) -> {v. int[v] | v > 300} :=\n"
    "  rec f (x y) := x"
)

# an exact-zero postcondition is out of reach for the default qualifiers
# but provable once the config adds `v = 0`
COUNTDOWN = (
    "fn countdown {n: int | n >= 0}( int[n] ) -> {v. int[v] | v = 0} :=\n"
    "  rec cd {n: int} (nv) :=\n"
    "    let ip = new(li) in\n"
    "    let t1 = ip := nv in\n"
    "    let loop = rec loop (u) :=\n"
    "      let iv = *ip in\n"
    "      if call gt (iv, 0) {\n"
    "        let t3 = ip := call sub (iv, 1) in\n"
    "        call loop(poison)\n"
    "      } else {\n"
    "        *ip\n"
    "      }\n"
    "    in call loop(poison)\n"
)


def invoke(args):
    proc = subprocess.run(
        RUN + args, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_check_accept_exit_zero():
    code, _, _ = invoke(["check", "corpus/accept/decr.lr"])
    assert code == 0


def test_check_reject_exit_one_with_diagnostic():
    code, _, err = invoke(["check", "corpus/reject/neg_into_nat.lr"])
    assert code == 1
    assert "cannot prove clause" in err
    assert "4:5" in err  # the offending assignment's span


def test_check_no_args_exit_two():
    code, _, _ = invoke(["check"])
    assert code == 2


def test_check_missing_file_exit_two():
    code, _, _ = invoke(["check", "corpus/nothing.lr"])
    assert code == 2


def test_check_parse_error_exit_two():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".lr", delete=False) as handle:
        handle.write("fn broken {( -> :=")
        path = handle.name
    code, _, err = invoke(["check", path])
    assert code == 2
    assert "parse error" in err


def test_oracle_undecided_exit_three(tmp_path):
    path = tmp_path / "sq.lr"
    path.write_text(SQ)
    code, _, err = invoke(["check", str(path)])
    assert code == 3
    assert (
        "fn-def: oracle could not decide: satisfiable relaxation, "
        "no integer model found [clause 0]"
    ) in err


def test_a_distant_counter_model_is_a_rejection(tmp_path):
    """The counterexample is the integer point that decided the clause, so
    it need not be small."""
    path = tmp_path / "distant.lr"
    path.write_text(DISTANT)
    code, _, err = invoke(["check", str(path)])
    assert code == 1, err
    assert "cannot prove clause" in err
    text = err.split("counterexample: ")[1].strip()
    model = dict(item.split(" = ") for item in text.split(", "))
    a, b = int(model["a"]), int(model["b"])
    assert a + b == 1000 and a > 200 and b > 200 and a <= 300


def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys):
    path = "corpus/accept/decr.lr"
    for args in [
        ["check", path, "--smt", "x"],
        ["solve", path, "--timeout", "1"],
        ["soundness", "--smt", "x"],
        ["run", path, "--out", "x"],
        ["run", path, "--smt", "x"],
        ["run", path, "--timeout", "1"],
        ["constraints", path, "--smt", "x"],
        ["constraints", path, "--timeout", "1"],
        ["constraints", path, "--config", "x"],
        ["soundness", "--seeds", "1", "--out", "x"],
    ]:
        assert main(args) == 2, args
        assert "unrecognized arguments" in capsys.readouterr().err


def test_constraints_dump_decr():
    code, out, _ = invoke(["constraints", "corpus/accept/decr.lr"])
    assert code == 0
    assert "clause 0 [ay:int] [ay >= 0; ay > 0] => ay - 1 >= 0" in out


def test_constraints_json():
    code, out, _ = invoke(["constraints", "corpus/accept/make_vec.lr", "--json"])
    assert code == 0
    import json

    payload = json.loads(out.split("; unit make_vec\n", 1)[1])
    assert len(payload) == 3


def test_solve_dump_ref_join():
    code, out, _ = invoke(["solve", "corpus/accept/ref_join.lr"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("kappa")]
    assert len(lines) == 3
    assert all(":= " in l and ">= 0" in l for l in lines)


def test_run_fuel_and_outcome():
    import tempfile

    src = "entry let f = rec f (x) := call f(x) in call f(poison)\n"
    with tempfile.NamedTemporaryFile("w", suffix=".lr", delete=False) as handle:
        handle.write(src)
        path = handle.name
    code, out, _ = invoke(["run", path, "--fuel", "100"])
    assert code == 0
    assert "fuel exhausted" in out


def test_run_trace_file(tmp_path):
    trace = tmp_path / "trace.txt"
    code, out, _ = invoke(
        ["run", "corpus/accept/make_vec.lr", "--trace", str(trace)]
    )
    # make_vec has no entry expression
    assert code == 2

    src = (
        open("corpus/accept/make_vec.lr").read()
        + "\nentry call make_vec()\n"
    )
    path = tmp_path / "driver.lr"
    path.write_text(src)
    code, out, _ = invoke(["run", str(path), "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines
    assert all(" loc=" in l and " tag=" in l and " stack=[" in l for l in lines)


def test_dump_determinism_over_corpus():
    import glob

    paths = sorted(glob.glob("corpus/accept/*.lr"))
    args = ["check", *paths, "--dump-constraints", "--dump-solution"]
    code1, out1, err1 = invoke(args)
    code2, out2, err2 = invoke(args)
    assert (code1, out1, err1) == (code2, out2, err2)
    assert out1


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "lr.conf"
    cfg.write_text("fuel = 50\n")
    src = "entry let f = rec f (x) := call f(x) in call f(poison)\n"
    path = tmp_path / "loop.lr"
    path.write_text(src)
    code, out, _ = invoke(["run", str(path), "--config", str(cfg)])
    assert "after 50 step(s)" in out
    # flags override the file
    code, out, _ = invoke(
        ["run", str(path), "--config", str(cfg), "--fuel", "20"]
    )
    assert "after 20 step(s)" in out


def test_soundness_command():
    code, out, _ = invoke(["soundness", "--seeds", "5", "--budget", "6"])
    assert code == 0
    assert "5/5 generated programs passed" in out


def test_soundness_command_uses_the_configured_solver(tmp_path):
    """`soundness` checks its corpus with the oracle `check` uses: a program
    the oracle cannot decide is blocked, which is no soundness bug."""
    (tmp_path / "sq.lr").write_text(SQ)
    code, out, err = invoke(
        ["soundness", "--seeds", "2", "--corpus", str(tmp_path)]
    )
    assert code == 3
    assert "2/2 generated programs passed" in out
    assert f"blocked at corpus {tmp_path / 'sq.lr'}" in err


def test_soundness_command_with_corpus():
    code, out, _ = invoke(
        [
            "soundness",
            "--seeds", "2",
            "--budget", "4",
            "--fuel", "300",
            "--corpus", "corpus/accept",
        ]
    )
    assert code == 0
    assert "corpus corpus/accept/decr_driver.lr: done" in out
    assert "corpus corpus/accept/diverge.lr: fuel" in out


def test_jobs_flag_parallel_check():
    import glob

    paths = sorted(glob.glob("corpus/accept/*.lr"))
    code, _, _ = invoke(["check", *paths, "--jobs", "4"])
    assert code == 0


def test_main_entry_in_process(capsys):
    assert main(["check", "corpus/accept/decr.lr"]) == 0
    assert main(["check", "corpus/mutants/decr_noguard.lr"]) == 1


def test_config_qualifier_extends_vocabulary(tmp_path):
    path = tmp_path / "countdown.lr"
    path.write_text(COUNTDOWN)
    code, _, _ = invoke(["check", str(path)])
    assert code == 1
    cfg = tmp_path / "lr.conf"
    cfg.write_text("qualifier = v = 0\n")
    code, _, _ = invoke(["check", str(path), "--config", str(cfg)])
    assert code == 0


def test_soundness_checks_the_corpus_with_configured_qualifiers(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "countdown.lr").write_text(COUNTDOWN)
    cfg = tmp_path / "lr.conf"
    cfg.write_text("qualifier = v = 0\n")
    args = ["soundness", "--seeds", "0", "--corpus", str(corpus)]
    assert main(args) == 1
    assert "checker rejected corpus" in capsys.readouterr().err
    assert main(args + ["--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert "countdown.lr: checked (no entry)" in out and err == ""


@pytest.mark.parametrize(
    "text, problem",
    [
        (None, "lr.conf: cannot read: No such file or directory"),
        ("fuel 10", "lr.conf:2: expected key = value, got 'fuel 10'"),
        ("fuel = many", "lr.conf:2: fuel = many: not an integer: 'many'"),
        ("qualifier = v <=", "lr.conf:2: qualifier = v <=: 1:5: unexpected"),
        ("qualifier = v + 1", "qualifier = v + 1: not a formula: its sort is int"),
        ("qualifier = x > 0", "unbound refinement variable 'x'"),
        ("smtt = z3", "lr.conf:2: unknown key 'smtt'"),
        ("smt = z3", "lr.conf:2: unknown key 'smt'"),
        ("timeout = 10", "lr.conf:2: unknown key 'timeout'"),
        ("transcript_dir = out", "lr.conf:2: unknown key 'transcript_dir'"),
    ],
)
def test_a_bad_config_file_is_a_usage_error(tmp_path, capsys, text, problem):
    """One line on stderr that names the file, the line and the problem."""
    path = tmp_path / "lr.conf"
    if text is not None:
        path.write_text(f"# settings\n{text}\n")
    assert main(["check", "corpus/accept/decr.lr", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lrcheck: config file {tmp_path}")
    assert problem in err and err.count("\n") == 1, err


def test_a_program_file_that_is_not_utf8_is_an_io_error(tmp_path, capsys):
    """Exit 2 with one line naming the file in every subcommand that reads
    one; `soundness --corpus` reports it, but not as a rejection."""
    path = tmp_path / "bad.lr"
    path.write_bytes(b"entry \xff 1\n")
    for command in ("check", "constraints", "solve", "run"):
        assert main([command, str(path)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: io error: not UTF-8"), err
        assert err.count("\n") == 1, err
    assert main(["soundness", "--seeds", "0", "--corpus", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"  corpus {path}: io error: not UTF-8" in err, err
    assert "checker rejected" not in err, err


@pytest.mark.parametrize(
    "text, problem",
    [
        (None, "io error: [Errno 2] No such file or directory"),
        ("entry let x = in x", "parse error: 1:15: unexpected 'in' (expected one of:"),
    ],
)
def test_every_subcommand_reports_an_unloadable_program_in_one_line(
    tmp_path, capsys, text, problem
):
    """`PATH: io error: ...` or `PATH: parse error: ...` and exit 2; in
    `soundness --corpus` as well, where it is no rejection."""
    path = tmp_path / "prog.lr"
    if text is not None:
        path.write_text(text)
    for command in ("check", "constraints", "solve", "run"):
        assert main([command, str(path)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: {problem}") and err.count("\n") == 1, err
    if text is not None:
        assert main(["soundness", "--seeds", "0", "--corpus", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"  corpus {path}: {problem}" in err and "rejected" not in err, err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
@pytest.mark.parametrize("command", ["check", "run"])
def test_a_non_ascii_digit_is_an_unexpected_character(tmp_path, capsys, digit, command):
    """Only 0-9 make an integer: `²` used to reach `int()` and exit 4, and
    the Arabic-Indic `٣` used to run as 3."""
    path = tmp_path / "digit.lr"
    path.write_text(f"entry {digit}\n", encoding="utf-8")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"{path}: parse error: 1:7: unexpected character {digit!r}\n"


def test_dumps_a_long_conjunction_of_a_solution(tmp_path, capsys):
    """A solution entry of `generate_program(3, 160)` is a conjunction
    longer than the recursion limit allows a recursive printer."""
    path = tmp_path / "gen.lr"
    path.write_text(print_program(generate_program(3, 160)))
    assert main(["check", str(path), "--dump-solution"]) == 0
    out = capsys.readouterr().out
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.count(" && ") == out.count(" && ") > 1000


def test_a_negative_count_is_a_usage_error(capsys):
    for args in [
        ["run", "corpus/accept/decr_driver.lr", "--fuel", "-5"],
        ["soundness", "--seeds", "-3"],
        ["soundness", "--budget", "-1"],
        ["soundness", "--fuel", "-1"],
    ]:
        assert main(args) == 2, args
        assert "must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "jobs, message", [("0", "must be at least 1: 0"), ("-3", "must not be negative: -3")]
)
def test_jobs_below_one_is_a_usage_error(capsys, jobs, message):
    assert main(["check", "corpus/accept/decr.lr", "--jobs", jobs]) == 2
    assert message in capsys.readouterr().err


def test_a_parse_error_at_the_end_names_the_end_of_input(tmp_path, capsys):
    path = tmp_path / "lr.conf"
    path.write_text("qualifier = v <=\n")
    assert main(["check", "corpus/accept/decr.lr", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "1:5: unexpected end of input (expected one of: " in err, err


def test_config_qualifier_instantiates_both_parameters_at_once():
    """A value parameter named `m` is not rewritten again by the
    metavariable's substitution."""
    kvar = KVarDecl("k0", (("m", Sort.INT), ("a", Sort.INT)))
    quals = make_qualifiers(Config(qualifiers=["v <= m + 1"]))
    insts = [instance(c) for c in instantiations(kvar, quals)]
    assert R("m <= a + 1") in insts and R("a <= m + 1") in insts
    assert R("a <= a + 1") not in insts


def test_reject_diagnostic_shows_counterexample():
    code, _, err = invoke(["check", "corpus/reject/neg_into_nat.lr"])
    assert code == 1
    # the failing clause `-1 >= 0` is closed: false with no variables
    assert "cannot prove clause [clause 0]; counterexample: (no variables)" in err
    code, _, err = invoke(["check", "corpus/mutants/decr_noguard.lr"])
    assert code == 1
    assert "cannot prove clause [clause 0]; counterexample: ay = 0" in err


def test_internal_error_exit_four(monkeypatch, capsys):
    import lrcheck.cli

    def crash(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(lrcheck.cli, "cmd_check", crash)
    assert main(["check", "corpus/accept/decr.lr"]) == lrcheck.cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "lrcheck: internal error: RuntimeError: boom second line\n"


def test_long_let_chain_checks(tmp_path):
    lines = ["let x0 = 0 in"] + [
        f"let x{i} = call add(x0, {i}) in" for i in range(1, 600)
    ]
    path = tmp_path / "long.lr"
    path.write_text("entry\n  " + "\n  ".join(lines) + "\n  x599\n")
    code, _, err = invoke(["check", str(path)])
    assert code == 0, err[-500:]
    assert err == ""


def test_deep_let_chain_is_never_rejected_nor_traceback(tmp_path):
    lines = ["let x0 = 0 in"] + [
        f"let x{i} = call add(x{i - 1}, 1) in" for i in range(1, 600)
    ]
    path = tmp_path / "deep.lr"
    path.write_text("entry\n  " + "\n  ".join(lines) + "\n  x599\n")
    code, _, err = invoke(["check", str(path)])
    assert code in (0, 4), err[-500:]
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1


def _add_chain(n):
    """A chain of n lets, each adding a constant to the first."""
    lines = ["let x0 = 0 in"] + [
        f"let x{i} = call add(x0, {i}) in" for i in range(1, n)
    ]
    return "entry\n  " + "\n  ".join(lines) + f"\n  x{n - 1}\n"


def test_1200_let_chain_checks_and_runs(tmp_path):
    path = tmp_path / "chain.lr"
    path.write_text(_add_chain(1200))
    code, _, err = invoke(["check", str(path)])
    assert code == 0, err[-500:]
    assert err == ""
    code, out, err = invoke(["run", str(path)])
    assert code == 0, err[-500:]
    assert out == "done: 1199 after 2399 step(s)\n"


def test_run_10000_let_chain(tmp_path):
    path = tmp_path / "chain.lr"
    path.write_text(_add_chain(10_000))
    code, out, err = invoke(["run", str(path)])
    assert code == 0, err[-500:]
    assert out == "done: 9999 after 19999 step(s)\n"
    assert err == ""


def test_fn_body_1000_let_chain_checks_and_runs(tmp_path):
    """Closing a declaration over the builtins before a run walks the
    `let` chain of its body in a loop."""
    lines = [
        "fn f {n: int | n >= 0}( int[n] ) -> {v. int[v] | v >= 0} :=",
        "  rec f {n: int} (x0) :=",
    ]
    lines += [f"    let x{i + 1} = call add(x0, {i}) in" for i in range(1000)]
    lines += ["    x1000", "", "entry call f {5} (5)"]
    path = tmp_path / "fn_chain.lr"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = invoke(["check", str(path)])
    assert code == 0, err[-500:]
    code, out, err = invoke(["run", str(path)])
    assert code == 0, err[-500:]
    assert out == "done: 1004 after 2001 step(s)\n"
    assert err == ""


def _nat_chain(n):
    """A `fn` body of n lets, each passing the last result to `nat`.  Every
    call opens an existential, so the context at the return grows with n."""
    lines = [
        "fn nat {}( {v. int[v] | true} ) -> {v. int[v] | v >= 0} :=",
        "  rec nat (x) := 0",
        "",
        "fn g {}( int[5] ) -> {v. int[v] | v >= 0} :=",
        "  rec g (x0) :=",
    ]
    lines += [f"    let x{i + 1} = call nat(x{i}) in" for i in range(n)]
    lines += [f"    x{n}", "", "entry call g(5)"]
    return "\n".join(lines) + "\n"


def _unpack_chain(n):
    """A `fn` body of n pairs of a read through a reference and an unpack
    of the value read."""
    lines = [
        "fn f {}( &mut {v. int[v] | v >= 0} ) -> int[0] :=",
        "  rec f (x) :=",
    ]
    for i in range(n):
        lines += [f"    let y{i} = *x in", f"    unpack (y{i}, a{i}) in"]
    lines += ["    0", "", "entry"]
    lines += ["  let c = new(l) in", "  let t = c := 3 in", "  let r = &mut c in"]
    lines += ["  call f(r)"]
    return "\n".join(lines) + "\n"


def test_600_let_nat_chain_checks_and_runs(tmp_path):
    path = tmp_path / "nat.lr"
    path.write_text(_nat_chain(600))
    code, _, err = invoke(["check", str(path)])
    assert code == 0, err[-500:]
    assert err == ""
    verdict = run_and_verify(parse_program(_nat_chain(600)))
    assert verdict.passed, verdict.detail


def test_600_pair_unpack_chain_checks_and_round_trips(tmp_path):
    path = tmp_path / "unpack.lr"
    path.write_text(_unpack_chain(600))
    code, _, err = invoke(["check", str(path)])
    assert code == 0, err[-500:]
    assert err == ""
    program = parse_program(_unpack_chain(600))
    e, heads = program.decls[0].fn.body, []
    while isinstance(e, (Let, Unpack)):
        heads.append(e)
        e = e.body
    assert [type(h) for h in heads] == [Let, Unpack] * 600
    # each head spans from its own keyword to the end of the chain
    assert [(h.span.line, h.span.col) for h in heads] == [
        (3 + i, 5) for i in range(1200)
    ]
    assert {(h.span.end_line, h.span.end_col) for h in heads} == {(1203, 6)}
    # compare text: dataclass equality recurses down the chain
    printed = print_program(program)
    assert print_program(parse_program(printed)) == printed


def test_nat_chain_checks_and_runs_on_a_shallow_stack(tmp_path, shallow_stack):
    path = tmp_path / "nat.lr"
    path.write_text(_nat_chain(300))
    assert main(["check", str(path)]) == 0
    verdict = run_and_verify(parse_program(_nat_chain(300)))
    assert verdict.passed, verdict.detail


def test_unpack_chain_checks_and_prints_on_a_shallow_stack(tmp_path, shallow_stack):
    path = tmp_path / "unpack.lr"
    path.write_text(_unpack_chain(300))
    assert main(["check", str(path)]) == 0
    printed = print_program(parse_program(_unpack_chain(300)))
    assert print_program(parse_program(printed)) == printed


def test_4000_pair_unpack_chain_checks(tmp_path):
    """Contexts find names in constant time and grow without copying, so
    long chains check in time linear in their length."""
    path = tmp_path / "unpack.lr"
    path.write_text(_unpack_chain(4000))
    code, _, err = invoke(["check", str(path)])
    assert code == 0, err[-500:]
    assert err == ""


def test_4000_let_nat_chain_checks(tmp_path):
    path = tmp_path / "nat.lr"
    path.write_text(_nat_chain(4000))
    code, _, err = invoke(["check", str(path)])
    assert code == 0, err[-500:]
    assert err == ""


def test_8000_let_nat_chain_checks(tmp_path):
    """The return clause has 8000 one-variable hypothesis rows, more than
    `MAX_FM_ROWS`; eliminating them creates no row, so none counts."""
    path = tmp_path / "nat.lr"
    path.write_text(_nat_chain(8000))
    code, _, err = invoke(["check", str(path)])
    assert code == 0, err[-500:]
    assert err == ""


def test_parameter_named_like_a_builtin_is_one_diagnostic_not_a_soundness_bug(tmp_path):
    """Parameters are bound over the globals when the program runs, so the
    checker may not type `add` below as the builtin (it used to accept, and
    the run got stuck calling 5)."""
    path = tmp_path / "shadow.lr"
    path.write_text(
        "fn f {}( int[5] ) -> int[3] :=\n  rec f (add) := call add(1, 2)\n\nentry call f(5)\n"
    )
    code, _, err = invoke(["check", str(path)])
    assert code == 1
    assert err.splitlines() == [
        f"{path}:1:1: error: CheckError: shadowing of 'add' is not supported"
    ]
    code, _, err = invoke(["soundness", "--seeds", "0", "--corpus", str(tmp_path)])
    assert code == 1
    assert err.splitlines() == [f"  checker rejected corpus {path}"]
