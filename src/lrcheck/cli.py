"""Command-line front end: check, constraints, solve, run, soundness.

Exit codes: 0 verified, 1 type/verification errors, 2 usage or I/O errors
(a bad flag or config file included), 3 the oracle could not decide (a size
limit, or no integer model of a satisfiable relaxation), 4 internal error
(a one-line `lrcheck: internal error: ...` on stderr, never a traceback).
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence

from .constraints import (
    Qualifier,
    default_qualifiers,
    dump_clauses_json,
    dump_clauses_text,
    parse_qualifier,
)
from .harness import CorpusResult, run_and_verify, soundness_sweep
from .interp import DEFAULT_FUEL, run as interp_run
from .logic import SortError
from .parser import ParseError, parse_program
from .syntax import Program, Sort
from .typeck import check_program

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_INTERNAL = 4


@dataclass
class Config:
    fuel: int = DEFAULT_FUEL
    qualifiers: List[Qualifier] = field(default_factory=list)


class ConfigError(Exception):
    """A config file that cannot be read or holds a bad line."""


class LoadError(Exception):
    """A program file that cannot be read or parsed, or an output file that
    cannot be written; the text names it."""


def non_negative(text: str) -> int:
    """An argparse type for counts and step bounds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def read_config_file(path: str) -> Config:
    """`key = value` lines, blank lines and `#` comments.  The keys are
    `fuel` (the last one counts) and `qualifier` (repeatable), an integer
    qualifier built by `parse_qualifier`; anything else is an error that
    names the line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read: {reason}") from None
    cfg = Config()
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{number}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ("fuel", "qualifier"):
            raise ConfigError(
                f"{where}: unknown key {key!r} (the keys are fuel and qualifier)"
            )
        try:
            if key == "fuel":
                cfg.fuel = non_negative(value)
                continue
            name = f"config{len(cfg.qualifiers)}"
            cfg.qualifiers.append(parse_qualifier(name, Sort.INT, value))
        except (argparse.ArgumentTypeError, ParseError, SortError) as exc:
            raise ConfigError(f"{where}: {key} = {value}: {exc}") from None
    return cfg


def build_config(args: argparse.Namespace) -> Config:
    """Flags override the config file, which overrides defaults."""
    config = getattr(args, "config", None)
    cfg = read_config_file(config) if config else Config()
    if getattr(args, "fuel", None) is not None:
        cfg.fuel = args.fuel
    return cfg


def _read_program(path: str) -> Program:
    """Parse the program at `path`.  A file that cannot be read, is not
    UTF-8 or does not parse raises a `LoadError` that names it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_program(handle.read())
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8: {exc.reason} at byte {exc.start}"
        raise LoadError(f"{path}: io error: {reason}") from None
    except OSError as exc:
        raise LoadError(f"{path}: io error: {exc.strerror or exc}") from None
    except ParseError as exc:
        raise LoadError(f"{path}: parse error: {exc}") from None


def _write(path: str, text: str) -> None:
    """Write `text` to `path`; a file that cannot be written raises a
    `LoadError` that names it."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise LoadError(f"{path}: io error: {exc.strerror or exc}") from None


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_check(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    if not args.paths:
        print("check: no input files", file=sys.stderr)
        return EXIT_USAGE
    quals = default_qualifiers() + cfg.qualifiers
    dump_chunks: List[str] = []
    exit_code = EXIT_OK
    for path in args.paths:
        try:
            program = _read_program(path)
        except LoadError as exc:
            print(exc, file=sys.stderr)
            exit_code = max(exit_code, EXIT_USAGE)
            continue
        report = check_program(program, quals=quals, debug_wf=args.debug_wf)
        for diag in report.diagnostics():
            print(diag.render(path), file=sys.stderr)
        if args.dump_constraints:
            for unit in report.units:
                dump_chunks.append(f"; {path} unit {unit.name}")
                dump_chunks.append(dump_clauses_text(unit.clauses))
        if args.dump_solution:
            for unit in report.units:
                if unit.solution is not None and unit.solution.assignment:
                    dump_chunks.append(f"; {path} unit {unit.name}")
                    dump_chunks.append(unit.solution.dump())
        exit_code = max(exit_code, report.exit_code)
    if args.dump_constraints or args.dump_solution:
        _emit("\n".join(dump_chunks) + "\n", args.out)
    return exit_code


def cmd_constraints(args: argparse.Namespace) -> int:
    program = _read_program(args.path)
    report = check_program(program, run_solver=False)
    chunks = []
    for unit in report.units:
        for diag in unit.diagnostics:
            print(diag.render(args.path), file=sys.stderr)
        if unit.status != "error":
            chunks.append(f"; unit {unit.name}")
            chunks.append(
                dump_clauses_json(unit.clauses)
                if args.json
                else dump_clauses_text(unit.clauses)
            )
    _emit("\n".join(chunks) + "\n", args.out)
    return report.exit_code


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    quals = default_qualifiers() + cfg.qualifiers
    program = _read_program(args.path)
    report = check_program(program, quals=quals)
    chunks = []
    for unit in report.units:
        for diag in unit.diagnostics:
            print(diag.render(args.path), file=sys.stderr)
        if unit.solution is not None and unit.solution.assignment:
            chunks.append(f"; unit {unit.name}")
            chunks.append(unit.solution.dump())
    _emit("\n".join(chunks) + "\n", args.out)
    return report.exit_code


def cmd_run(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    program = _read_program(args.path)
    if program.entry is None:
        print("run: program has no entry expression", file=sys.stderr)
        return EXIT_USAGE
    outcome = interp_run(program, fuel=cfg.fuel, trace=bool(args.trace))
    print(outcome.render())
    if args.trace and outcome.state is not None:
        _write(args.trace, "".join(e.render() + "\n" for e in outcome.state.trace))
    if outcome.kind == "stuck":
        return EXIT_REJECTED
    return EXIT_OK


def _print_failures(result: CorpusResult, what: str) -> None:
    for key, detail in result.bugs:
        print(f"  bug at {what} {key}: {detail}", file=sys.stderr)
    for key, detail in result.blocked:
        print(f"  blocked at {what} {key}: {detail}", file=sys.stderr)
    for key in result.rejected:
        print(f"  checker rejected {what} {key}", file=sys.stderr)


def cmd_soundness(args: argparse.Namespace) -> int:
    """Exit 1 on a soundness bug, else 3 when the oracle blocked a seed or
    a corpus program, else 2 when a corpus file could not be loaded, else
    1 on a rejection.  A `--corpus` that is not a directory exits 2 first."""
    cfg = build_config(args)
    if args.corpus and not os.path.isdir(args.corpus):
        print(f"soundness: --corpus {args.corpus}: not a directory", file=sys.stderr)
        return EXIT_USAGE
    quals = default_qualifiers() + cfg.qualifiers
    result = soundness_sweep(
        range(args.seeds), budget=args.budget, fuel=cfg.fuel, quals=quals
    )
    print(
        f"soundness: {result.passed}/{result.total} generated programs passed, "
        f"{len(result.rejected)} rejected by the checker, "
        f"{len(result.blocked)} blocked on the oracle, "
        f"{len(result.bugs)} soundness bugs"
    )
    _print_failures(result, "seed")
    corpus = CorpusResult()
    unloadable = False
    if args.corpus:
        for path in sorted(glob.glob(os.path.join(args.corpus, "*.lr"))):
            try:
                program = _read_program(path)
            except LoadError as exc:
                print(f"  corpus {exc}", file=sys.stderr)
                unloadable = True
                continue
            verdict = run_and_verify(program, fuel=cfg.fuel, quals=quals)
            corpus.record(path, verdict)
            if verdict.passed:
                outcome = verdict.outcome
                print(f"corpus {path}: "
                      + ("checked (no entry)" if outcome is None else outcome.kind))
        _print_failures(corpus, "corpus")
    if result.bugs or corpus.bugs:
        return EXIT_REJECTED
    if result.blocked or corpus.blocked:
        return EXIT_ORACLE
    if unloadable:
        return EXIT_USAGE
    return EXIT_REJECTED if result.rejected or corpus.rejected else EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It holds no command
    function: `main` looks that up by name on each call."""
    parser = argparse.ArgumentParser(
        prog="lrcheck",
        description="Refinement type checker and instrumented interpreter "
        "for .lr programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--config": dict(help="key=value config file"),
        "--out": dict(help="write dumps to a file instead of stdout"),
    }

    def common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_check = sub.add_parser("check", help="type-check and verify programs")
    p_check.add_argument("paths", nargs="*")
    p_check.add_argument("--dump-constraints", action="store_true")
    p_check.add_argument("--dump-solution", action="store_true")
    p_check.add_argument("--debug-wf", action="store_true")
    common(p_check, "--config", "--out")

    p_cons = sub.add_parser("constraints", help="dump the constraint clauses")
    p_cons.add_argument("path")
    p_cons.add_argument("--json", action="store_true")
    common(p_cons, "--out")

    p_solve = sub.add_parser("solve", help="dump the inferred solution")
    p_solve.add_argument("path")
    common(p_solve, "--config", "--out")

    p_run = sub.add_parser("run", help="run a program's entry expression")
    p_run.add_argument("path")
    p_run.add_argument("--fuel", type=non_negative)
    p_run.add_argument("--trace", help="write the event trace to a file")
    common(p_run, "--config")

    p_sound = sub.add_parser(
        "soundness", help="differential soundness sweep over generated programs"
    )
    p_sound.add_argument("--seeds", type=non_negative, default=100)
    p_sound.add_argument("--budget", type=non_negative, default=10)
    p_sound.add_argument("--fuel", type=non_negative)
    p_sound.add_argument(
        "--corpus", help="also run every checked .lr program in this directory"
    )
    common(p_sound, "--config")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    command = {
        "check": cmd_check,
        "constraints": cmd_constraints,
        "solve": cmd_solve,
        "run": cmd_run,
        "soundness": cmd_soundness,
    }[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"lrcheck: config file {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LoadError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must not read as a verdict
        message = " ".join(str(exc).split())
        print(
            f"lrcheck: internal error: {type(exc).__name__}: {message}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
