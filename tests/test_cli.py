"""Command-line behavior: exit codes, dumps, determinism, config."""

import argparse
import glob
import importlib
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lrcheck.cli import build_parser, main
from lrcheck.constraints import (
    default_qualifiers,
    instance,
    instantiations,
    parse_qualifier,
)
from lrcheck.harness import generate_program, run_and_verify
from lrcheck.parser import parse_program
from lrcheck.parser import parse_refexpr as R
from lrcheck.printer import print_program
from lrcheck.syntax import IntLit, KVarDecl, Let, Sort, Unpack

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
        ["check", path, "--jobs", "2"],
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


def test_the_readme_usage_lists_the_flags_of_each_subcommand():
    """Each `lrcheck SUB ...` line of the README's usage block names
    exactly the long options of the parser's subcommand SUB."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    usage = [line for line in block.splitlines() if line.startswith("lrcheck ")]
    assert sorted(line.split()[1] for line in usage) == sorted(subparsers.choices)
    for line in usage:
        sub = line.split()[1]
        known = {
            flag
            for action in subparsers.choices[sub]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        assert set(re.findall(r"--[a-z-]+", line)) == known, sub


def test_the_readme_layout_cites_names_each_module_has():
    """The README's Layout block lists every module of the package but
    `__init__`, and each ALL-CAPS name on a module's lines (four or more
    characters: shorter ones such as AST are prose) is a module-level name
    of that module."""
    root = Path(__file__).parent.parent
    layout = (root / "README.md").read_text().split("## Layout", 1)[1]
    block = layout.split("```\n", 1)[1].split("```", 1)[0]
    text, module = {}, None
    for line in block.splitlines():
        head = re.match(r"  (\w+)\.py ", line)
        if head:
            module = head.group(1)
            text[module] = line
        elif module and line.startswith("    "):
            text[module] += line
        else:
            module = None
    cited = 0
    for module, lines in text.items():
        names = vars(importlib.import_module(f"lrcheck.{module}"))
        for name in re.findall(r"\b[A-Z][A-Z0-9_]{3,}\b", lines):
            assert name in names, f"{module}.py: {name}"
            cited += 1
    assert cited
    modules = (root / "src" / "lrcheck").glob("*.py")
    assert sorted(text) == sorted(p.stem for p in modules if p.stem != "__init__")


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
        (None, "io error: No such file or directory"),
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


@pytest.mark.parametrize(
    "source",
    [
        "entry let x = new(l) in vec_new",
        "entry if true { vec_new } else { vec_push }",
        "entry let f = rec f (x) := if true { call f(x) } else { vec_new } in 1",
        "entry vec_new",
    ],
)
def test_a_vec_builtin_used_as_a_value_is_one_diagnostic(tmp_path, capsys, source):
    """A vec builtin is typed only as the callee of a call.  Anywhere else
    `check` exits 1 with one line naming it, and `soundness --corpus`
    reports the file as a rejection; both used to exit 4."""
    path = tmp_path / "vec.lr"
    path.write_text(source + "\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"{path}:1:{source.index('vec_new') + 1}: error: StructuralError: "
        "vec_new can only be called, not used as a value\n"
    )
    assert main(["soundness", "--seeds", "0", "--corpus", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"  checker rejected corpus {path}\n"


# a type error in a function of its own: the body dereferences an integer
DEREF_INT = "fn {name} {{}}( int[1] ) -> int[1] := rec {name} (x) := *x\n"


def test_solve_and_constraints_report_every_unit_and_exit_as_check_does(
    tmp_path, capsys
):
    """Every unit's diagnostics, not only the first unit's; and with one
    unit in error and one undecided, `solve` exits 3 as `check` does."""
    two = tmp_path / "two.lr"
    two.write_text(DEREF_INT.format(name="g") + DEREF_INT.format(name="h"))
    mixed = tmp_path / "mixed.lr"
    # `n + n = 1` has a rational but no integer solution, so the oracle
    # finds the relaxation satisfiable, finds no integer model, and cannot
    # decide
    mixed.write_text(
        DEREF_INT.format(name="g")
        + "fn f {n: int | n + n = 1}( int[n] ) -> {v. int[v] | v >= 5} :=\n"
        "  rec f {n: int} (x) := x\n"
    )
    for command in ("check", "solve", "constraints"):
        assert main([command, str(two)]) == 1, command
        err = capsys.readouterr().err
        assert err.count(": error: DerefNonPointer: ") == 2, (command, err)
    for command, code in (("check", 3), ("solve", 3), ("constraints", 1)):
        assert main([command, str(mixed)]) == code, command
        err = capsys.readouterr().err
        assert err.count(": error: DerefNonPointer: ") == 1, (command, err)


@pytest.mark.parametrize(
    "args",
    [
        ["check", "corpus/accept/decr.lr", "--dump-solution", "--out"],
        ["constraints", "corpus/accept/decr.lr", "--out"],
        ["solve", "corpus/accept/decr.lr", "--out"],
        ["run", "corpus/accept/decr_driver.lr", "--trace"],
    ],
)
@pytest.mark.parametrize(
    "target, reason",
    [("missing/out.txt", "No such file or directory"), (".", "Is a directory")],
)
def test_an_output_file_that_cannot_be_written_is_an_io_error(
    tmp_path, capsys, args, target, reason
):
    """`OUT: io error: ...` and exit 2; `run` prints its outcome first."""
    out_path = str(tmp_path / target)
    assert main(args + [out_path]) == 2
    out, err = capsys.readouterr()
    assert err == f"{out_path}: io error: {reason}\n"
    assert out == ("done: 0 after 14 step(s)\n" if args[0] == "run" else "")


@pytest.mark.parametrize("corpus", ["missing", "prog.lr"])
def test_a_soundness_corpus_that_is_not_a_directory_is_a_usage_error(
    tmp_path, capsys, corpus
):
    (tmp_path / "prog.lr").write_text("entry 1\n")
    path = str(tmp_path / corpus)
    assert main(["soundness", "--seeds", "1", "--corpus", path]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"soundness: --corpus {path}: not a directory\n")


def test_configured_qualifiers_that_repeat_defaults_change_no_output(tmp_path, capsys):
    """`v >= 0`, `v = m + 1` and `v < m` are built as the defaults `nonneg`,
    `eq-succ` and `lt` are, so each repeats one and adds no candidate."""
    cfg = tmp_path / "lr.conf"
    cfg.write_text("qualifier = v >= 0\nqualifier = v = m + 1\nqualifier = v < m\n")
    paths = sorted(glob.glob("corpus/*/*.lr"))
    assert len(paths) == 21
    for path in paths:
        args = ["check", path, "--dump-constraints", "--dump-solution"]
        plain = main(args), capsys.readouterr()
        configured = main(args + ["--config", str(cfg)]), capsys.readouterr()
        assert configured == plain, path


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
    quals = default_qualifiers() + [parse_qualifier("config0", Sort.INT, "v <= m + 1")]
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


def test_in_process_calls_share_no_arguments(monkeypatch, capsys):
    """`main` builds its parser once per process: the flags of one call do
    not carry over to the next, and a usage error still exits 2."""
    import lrcheck.cli

    seen = []
    real = lrcheck.cli.cmd_check

    def recording(args):
        seen.append(args)
        return real(args)

    monkeypatch.setattr(lrcheck.cli, "cmd_check", recording)
    path = "corpus/accept/decr.lr"
    assert main(["check", path, "--debug-wf", "--dump-constraints"]) == 0
    dumped = capsys.readouterr().out
    assert main(["check", path]) == 0
    plain = capsys.readouterr().out
    assert (seen[0].debug_wf, seen[0].dump_constraints) == (True, True)
    assert (seen[1].debug_wf, seen[1].dump_constraints) == (False, False)
    assert "clause 0 [ay:int]" in dumped and "clause 0" not in plain
    assert main(["check", path, "--no-such-flag"]) == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert len(seen) == 2


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


def test_500_let_add_chain_rooted_at_a_parameter_checks(tmp_path):
    """The index grows into a 500-deep sum of the parameter, as no constant
    folds it; each call argument has its formal's index, so no equation of
    two such sums is built and compared (it used to raise RecursionError)."""
    lines = [
        "fn g {n: int}( int[n] ) -> {v. int[v] | v >= n} :=",
        "  rec g {n: int} (x0) :=",
    ]
    lines += [f"    let x{i + 1} = call add(x{i}, 1) in" for i in range(500)]
    lines += ["    x500", "", "entry call g {5} (5)"]
    path = tmp_path / "param_chain.lr"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = invoke(["check", str(path)])
    assert code == 0, err[-500:]
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


def _requires_chain(n, entry):
    """`f` requires a conjunction of n atoms, all implied by `a >= 0`."""
    atoms = " && ".join(f"a >= {-i}" for i in range(n))
    text = (
        f"fn f {{a: int | {atoms}}}( int[a] ) -> {{v. int[v] | v >= 0}} :=\n"
        "  rec f {a: int} (x) := x\n"
    )
    return text + ("\nentry call f(3)\n" if entry else "")


@pytest.mark.parametrize("entry", [False, True])
def test_5000_atom_requires_checks_on_a_shallow_stack(
    tmp_path, capsys, shallow_stack, entry
):
    """Sort checking, folding, splitting and substitution walk a chain of
    `&&` in a loop, so its length is not bounded by the recursion limit."""
    path = tmp_path / "conj.lr"
    path.write_text(_requires_chain(5000, entry))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""
    if entry:
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out.startswith("done: 3 ")


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


def test_a_repeated_top_level_name_is_one_diagnostic(tmp_path, capsys):
    path = tmp_path / "dup.lr"
    decl = "fn f {}( int[1] ) -> int[1] := rec f (x) := x\n"
    path.write_text(decl + "\n" + decl)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"{path}:3:1: error: structure: duplicate top-level name 'f'\n"
    )


def test_a_call_argument_of_the_wrong_shape_is_reported_at_the_call(tmp_path, capsys):
    """An argument whose type has another shape than the parameter's is a
    structural error, placed at the span of the call."""
    path = tmp_path / "arg.lr"
    path.write_text(
        "fn decr {}( &mut {v. int[v] | v >= 0} ) -> uninit(1) :=\n"
        "  rec decr (x) := poison\n\nentry\n  let y = 3 in\n  call decr(y)\n"
    )
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"{path}:6:3: error: StructuralError: "
        "cannot relate int[3] to &mut {v. int[v] | v >= 0}\n"
    )


def test_run_reports_an_aliasing_violation(tmp_path, capsys):
    """A write to a cell pops the unique borrow taken before it; writing
    through that borrow is a stacked-borrows violation, an outcome of the
    run and not an error of the command."""
    path = tmp_path / "alias.lr"
    path.write_text(
        "entry let c = new(lc) in let t0 = c := 0 in let r = &mut c in "
        "let t1 = c := 1 in r := 2\n"
    )
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == (
        "alias error: aliasing violation on write: loc=0 tag=1 after 7 step(s)\n"
    )


SIGNATURE_M = (
    "fn f {n: int | m >= 0}( int[n] ) -> int[n] :=\n  rec f (x) := x\n"
)


@pytest.mark.parametrize(
    "source, problem",
    [
        (SIGNATURE_M + "\nentry\n  call f(1)\n", "wf-fun"),
        (SIGNATURE_M, "wf-fun"),
        ("fn f {n: int}( int[n] ) -> int[m] :=\n  rec f (x) := x\n", "wf-idx"),
    ],
)
def test_an_ill_formed_signature_is_one_diagnostic_at_its_declaration(
    tmp_path, capsys, source, problem
):
    """Each declared signature is checked once, with the globals.  An
    unbound name in a `requires` used to reach the oracle from the entry's
    call and exit 4; without the entry it was a line with no span."""
    path = tmp_path / "sig.lr"
    path.write_text(source)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"{path}:1:1: error: structure: signature of 'f': "
        f"{problem}: unbound refinement variable 'm'\n"
    )


# an unannotated inner rec whose recursive call the shape pass types as a
# hole; `run` gets stuck on each of these uses of the call's result
HOLE_LOOP = (
    "entry\n  let c = new(lc) in\n  let t0 = c := 3 in\n"
    "  let loop = rec loop (u) :=\n    let v = *c in\n    if call gt(v, 0) {\n"
    "      let t1 = c := call sub(v, 1) in\n      BODY\n"
    "    } else {\n      0\n    }\n  in\n  call loop(poison)\n"
)


@pytest.mark.parametrize(
    "body",
    [
        f"let r = call loop(u) in\n      {use}"
        for use in ("*r", "&mut r", "&shr r", "&strg r", "r := 1", "call r(u)")
    ],
)
def test_a_rule_that_meets_a_shape_pass_hole_is_one_diagnostic(tmp_path, capsys, body):
    """In the shape pass a dereference, borrow, assignment or call through a
    hole is a hole, and a hole relates to any type; each of these used to
    exit 4 with `TypeError: print_type: _Hole()`."""
    path = tmp_path / "hole.lr"
    path.write_text(HOLE_LOOP.replace("BODY", body))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{path}:" in err and ": error: " in err, err


# loops that nest: the inner loop's exit calls the enclosing loop, so while
# the enclosing loop's shape is found the inner loop's result is unknown
SUM_2D = """\
entry
  let ip = new(li) in
  let t0 = ip := 0 in
  let sp = new(ls) in
  let t1 = sp := 0 in
  let outer = rec outer (u) :=
    let iv = *ip in
    if call lt (iv, 3) {
      let jp = new(lj) in
      let t2 = jp := 0 in
      let inner = rec inner (w) :=
        let jv = *jp in
        if call lt (jv, 3) {
          let sv = *sp in
          let t3 = sp := call add (sv, 1) in
          let t4 = jp := call add (jv, 1) in
          call inner(poison)
        } else {
          let t5 = ip := call add (iv, 1) in
          call outer(poison)
        }
      in call inner(poison)
    } else {
      *sp
    }
  in call outer(poison)
"""

SUM_3D = """\
entry
  let ip = new(li) in
  let t0 = ip := 0 in
  let sp = new(ls) in
  let t1 = sp := 0 in
  let l1 = rec l1 (u) :=
    let iv = *ip in
    if call lt (iv, 2) {
      let jp = new(lj) in
      let t2 = jp := 0 in
      let l2 = rec l2 (w) :=
        let jv = *jp in
        if call lt (jv, 2) {
          let kp = new(lk) in
          let t3 = kp := 0 in
          let l3 = rec l3 (x) :=
            let kv = *kp in
            if call lt (kv, 2) {
              let sv = *sp in
              let t4 = sp := call add (sv, 1) in
              let t5 = kp := call add (kv, 1) in
              call l3(poison)
            } else {
              let t6 = jp := call add (jv, 1) in
              call l2(poison)
            }
          in call l3(poison)
        } else {
          let t7 = ip := call add (iv, 1) in
          call l1(poison)
        }
      in call l2(poison)
    } else {
      *sp
    }
  in call l1(poison)
"""

GRID = """\
fn grid {n: int | n >= 0}( int[n] ) -> {v. int[v] | v >= 0} :=
  rec grid {n: int} (nv) :=
    let ip = new(li) in
    let t0 = ip := 0 in
    let sp = new(ls) in
    let t1 = sp := 0 in
    let outer = rec outer (u) :=
      let iv = *ip in
      if call lt (iv, nv) {
        let jp = new(lj) in
        let t2 = jp := 0 in
        let inner = rec inner (w) :=
          let jv = *jp in
          if call lt (jv, nv) {
            let sv = *sp in
            let t3 = sp := call add (sv, 1) in
            let t4 = jp := call add (jv, 1) in
            call inner(poison)
          } else {
            let t5 = ip := call add (iv, 1) in
            call outer(poison)
          }
        in call inner(poison)
      } else {
        *sp
      }
    in call outer(poison)

entry call grid {3} (3)
"""


@pytest.mark.parametrize(
    "source, value",
    [
        (SUM_2D, 9),
        (SUM_3D, 8),
        (GRID, 9),
        (
            HOLE_LOOP.replace(
                "BODY", "let inner = rec inner (w) := call loop(w) in\n      call inner(u)"
            ),
            0,
        ),
    ],
    ids=["sum-2d", "sum-3d", "grid", "inner-calls-outer"],
)
def test_nested_loops_check_and_run(tmp_path, capsys, source, value):
    """An inner loop whose result the enclosing loop's shape pass has not
    found yet types as the enclosing loop's recursive call does; each of
    these used to be rejected with `branches produce incompatible types:
    uninit(1) vs ...`."""
    path = tmp_path / "nested.lr"
    path.write_text(source)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""
    verdict = run_and_verify(parse_program(source))
    assert verdict.passed, verdict.detail
    assert verdict.outcome.value == IntLit(value)


def test_token_mutants_of_the_corpus_never_exit_four(tmp_path, capsys):
    """Delete, insert or swap one token of a corpus file: `check` and `run`
    end each mutant with a verdict or a one-line diagnostic, never an
    internal error."""
    rng = random.Random(1)
    texts = [Path(p).read_text() for p in sorted(glob.glob("corpus/*/*.lr"))]
    assert len(texts) == 21
    path = tmp_path / "mutant.lr"
    for i in range(1000):
        toks = rng.choice(texts).split()
        j, op = rng.randrange(len(toks)), rng.randrange(3)
        if op == 0:
            del toks[j]
        elif op == 1:
            toks.insert(j, rng.choice(toks))
        else:
            k = rng.randrange(len(toks))
            toks[j], toks[k] = toks[k], toks[j]
        path.write_text(" ".join(toks))
        for command in ("check", "run"):
            assert main([command, str(path)]) != 4, (i, command, " ".join(toks))
        capsys.readouterr()
