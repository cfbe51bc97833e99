"""Command-line behavior: exit codes, dumps, determinism, config."""

import subprocess
import sys

import pytest

from lrcheck.cli import main

RUN = [sys.executable, "-m", "lrcheck.cli"]


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


def test_oracle_unavailable_exit_three():
    code, _, _ = invoke(
        ["check", "corpus/accept/decr.lr", "--smt", "/nonexistent/solver"]
    )
    assert code == 3


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


def test_check_through_smt_pipe():
    """Whole verification routed over the SMT-LIB2 child-process protocol."""
    code, _, _ = invoke(
        [
            "check",
            "corpus/accept/decr.lr",
            "corpus/accept/ref_join.lr",
            "--smt",
            f"{sys.executable} -m lrcheck.smt_server",
        ]
    )
    assert code == 0
    code, _, err = invoke(
        [
            "check",
            "corpus/mutants/decr_noguard.lr",
            "--smt",
            f"{sys.executable} -m lrcheck.smt_server",
        ]
    )
    assert code == 1
    assert "cannot prove clause" in err


def test_config_qualifier_extends_vocabulary(tmp_path):
    """An exact-zero postcondition is out of reach for the default
    qualifiers but provable once the config adds `v = 0`."""
    src = (
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
    path = tmp_path / "countdown.lr"
    path.write_text(src)
    code, _, _ = invoke(["check", str(path)])
    assert code == 1
    cfg = tmp_path / "lr.conf"
    cfg.write_text("qualifier = v = 0\n")
    code, _, _ = invoke(["check", str(path), "--config", str(cfg)])
    assert code == 0


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
