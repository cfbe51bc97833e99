"""Command-line front end: check, constraints, solve, run, soundness.

Exit codes: 0 verified, 1 type/verification errors, 2 usage or I/O errors,
3 oracle unavailable or unknown-blocked, 4 internal error (a one-line
`lrcheck: internal error: ...` on stderr, never a traceback).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .constraints import (
    Qualifier,
    default_qualifiers,
    dump_clauses_json,
    dump_clauses_text,
)
from .harness import run_and_verify, soundness_sweep
from .interp import run as interp_run
from .oracle import Oracle, SmtBackend
from .parser import ParseError, parse_program, parse_refexpr
from .syntax import Program, Sort
from .typeck import Report, check_program

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_INTERNAL = 4


@dataclass
class Config:
    smt: Optional[str] = None
    timeout: float = 10.0
    fuel: int = 100_000
    qualifiers: List[str] = field(default_factory=list)
    debug_wf: bool = False
    jobs: int = 1
    transcript_dir: Optional[str] = None


def load_config_file(path: str) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out.setdefault(key.strip(), []).append(value.strip())
    return out


def build_config(args: argparse.Namespace) -> Config:
    """Flags override the config file, which overrides defaults."""
    cfg = Config()
    if getattr(args, "config", None):
        file_cfg = load_config_file(args.config)
        if "smt" in file_cfg:
            cfg.smt = file_cfg["smt"][-1]
        if "timeout" in file_cfg:
            cfg.timeout = float(file_cfg["timeout"][-1])
        if "fuel" in file_cfg:
            cfg.fuel = int(file_cfg["fuel"][-1])
        if "transcript_dir" in file_cfg:
            cfg.transcript_dir = file_cfg["transcript_dir"][-1]
        cfg.qualifiers.extend(file_cfg.get("qualifier", []))
    if getattr(args, "smt", None):
        cfg.smt = args.smt
    if getattr(args, "timeout", None) is not None:
        cfg.timeout = args.timeout
    if getattr(args, "fuel", None) is not None:
        cfg.fuel = args.fuel
    if getattr(args, "debug_wf", False):
        cfg.debug_wf = True
    if getattr(args, "jobs", None):
        cfg.jobs = max(1, args.jobs)
    return cfg


def make_oracle(cfg: Config) -> Oracle:
    if cfg.smt:
        return Oracle(
            backend=SmtBackend(
                cfg.smt.split(),
                timeout=cfg.timeout,
                transcript_dir=cfg.transcript_dir,
            )
        )
    return Oracle()


def make_qualifiers(cfg: Config) -> List[Qualifier]:
    quals = default_qualifiers()
    for i, text in enumerate(cfg.qualifiers):
        template = parse_refexpr(text)
        from .logic import free_vars

        uses_meta = "m" in free_vars(template)

        def build(v, m, template=template, uses_meta=uses_meta):
            from .logic import subst

            out = subst(template, "v", v)
            if uses_meta and m is not None:
                out = subst(out, "m", m)
            return out

        quals.append(Qualifier(f"config{i}", Sort.INT, uses_meta, build))
    return quals


def _read_program(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _check_one(
    path: str, cfg: Config, quals
) -> Tuple[str, Optional[Report], List[str]]:
    """Returns (path, report, diagnostics)."""
    diagnostics: List[str] = []
    try:
        program = _read_program(path)
    except OSError as exc:
        return path, None, [f"{path}: io error: {exc}"]
    except ParseError as exc:
        return path, None, [f"{path}: parse error: {exc}"]
    oracle = make_oracle(cfg)
    try:
        report = check_program(
            program, oracle=oracle, quals=quals, debug_wf=cfg.debug_wf
        )
    finally:
        oracle.close()
    for diag in report.diagnostics():
        diagnostics.append(diag.render(path))
    return path, report, diagnostics


def cmd_check(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    if not args.paths:
        print("check: no input files", file=sys.stderr)
        return EXIT_USAGE
    quals = make_qualifiers(cfg)
    results = []
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(
                pool.map(lambda p: _check_one(p, cfg, quals), args.paths)
            )
    else:
        results = [_check_one(p, cfg, quals) for p in args.paths]

    dump_chunks: List[str] = []
    exit_code = EXIT_OK
    for path, report, diagnostics in results:
        for line in diagnostics:
            print(line, file=sys.stderr)
        if report is None:
            exit_code = max(exit_code, EXIT_USAGE)
            continue
        if args.dump_constraints:
            for unit in report.units:
                dump_chunks.append(f"; {path} unit {unit.name}")
                dump_chunks.append(dump_clauses_text(unit.clauses))
        if args.dump_solution:
            for unit in report.units:
                if unit.solution is not None and unit.solution.assignment:
                    dump_chunks.append(f"; {path} unit {unit.name}")
                    dump_chunks.append(unit.solution.dump())
        if report.blocked_on_oracle:
            exit_code = max(exit_code, EXIT_ORACLE)
        elif not report.ok:
            exit_code = max(exit_code, EXIT_REJECTED)
    if args.dump_constraints or args.dump_solution:
        _emit("\n".join(dump_chunks) + "\n", args.out)
    return exit_code


def cmd_constraints(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    try:
        program = _read_program(args.path)
    except (OSError, ParseError) as exc:
        print(f"constraints: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = check_program(program, run_solver=False)
    chunks = []
    for unit in report.units:
        if unit.status == "error":
            for diag in unit.diagnostics:
                print(diag.render(args.path), file=sys.stderr)
            return EXIT_REJECTED
        chunks.append(f"; unit {unit.name}")
        chunks.append(
            dump_clauses_json(unit.clauses)
            if args.json
            else dump_clauses_text(unit.clauses)
        )
    _emit("\n".join(chunks) + "\n", args.out)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    quals = make_qualifiers(cfg)
    try:
        program = _read_program(args.path)
    except (OSError, ParseError) as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    oracle = make_oracle(cfg)
    report = check_program(program, oracle=oracle, quals=quals)
    oracle.close()
    chunks = []
    code = EXIT_OK
    for unit in report.units:
        for diag in unit.diagnostics:
            print(diag.render(args.path), file=sys.stderr)
        if unit.status == "error":
            return EXIT_REJECTED
        if unit.status == "rejected":
            code = max(code, EXIT_REJECTED)
        if unit.status == "unknown":
            code = max(code, EXIT_ORACLE)
        if unit.solution is not None and unit.solution.assignment:
            chunks.append(f"; unit {unit.name}")
            chunks.append(unit.solution.dump())
    _emit("\n".join(chunks) + "\n", args.out)
    return code


def cmd_run(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    try:
        program = _read_program(args.path)
    except (OSError, ParseError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if program.entry is None:
        print("run: program has no entry expression", file=sys.stderr)
        return EXIT_USAGE
    outcome = interp_run(program, fuel=cfg.fuel)
    print(outcome.render())
    if args.trace and outcome.state is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for event in outcome.state.trace:
                handle.write(event.render() + "\n")
    if outcome.kind == "stuck":
        return EXIT_REJECTED
    return EXIT_OK


def cmd_soundness(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    result = soundness_sweep(
        range(args.seeds), budget=args.budget, fuel=cfg.fuel
    )
    print(
        f"soundness: {result.passed}/{result.total} generated programs passed, "
        f"{len(result.rejected)} rejected by the checker, "
        f"{len(result.bugs)} soundness bugs"
    )
    for seed, detail in result.bugs:
        print(f"  bug at seed {seed}: {detail}", file=sys.stderr)
    for seed in result.rejected:
        print(f"  checker rejected seed {seed}", file=sys.stderr)
    ok = result.ok
    if args.corpus:
        import glob
        import os

        from lrcheck.typeck import check_program as _check

        oracle = make_oracle(cfg)
        for path in sorted(glob.glob(os.path.join(args.corpus, "*.lr"))):
            try:
                program = _read_program(path)
            except (OSError, ParseError) as exc:
                print(f"  corpus {path}: {exc}", file=sys.stderr)
                ok = False
                continue
            report = _check(program, oracle=oracle)
            if not report.ok:
                print(f"  corpus {path}: checker rejected", file=sys.stderr)
                ok = False
                continue
            if program.entry is None:
                print(f"corpus {path}: checked (no entry)")
                continue
            verdict = run_and_verify(
                program, fuel=cfg.fuel, report=report, oracle=oracle
            )
            if verdict.passed:
                print(f"corpus {path}: {verdict.outcome.kind}")
            else:
                print(f"  corpus {path}: SOUNDNESS BUG: {verdict.detail}",
                      file=sys.stderr)
                ok = False
        oracle.close()
    return EXIT_OK if ok else EXIT_REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrcheck",
        description="Refinement type checker and instrumented interpreter "
        "for .lr programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--smt", help="external SMT-LIB2 solver command")
        p.add_argument("--timeout", type=float, help="per-query timeout (s)")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="write dumps to a file instead of stdout")

    p_check = sub.add_parser("check", help="type-check and verify programs")
    p_check.add_argument("paths", nargs="*")
    p_check.add_argument("--dump-constraints", action="store_true")
    p_check.add_argument("--dump-solution", action="store_true")
    p_check.add_argument("--debug-wf", action="store_true")
    p_check.add_argument("--jobs", type=int, default=1)
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_cons = sub.add_parser("constraints", help="dump the constraint clauses")
    p_cons.add_argument("path")
    p_cons.add_argument("--json", action="store_true")
    common(p_cons)
    p_cons.set_defaults(func=cmd_constraints)

    p_solve = sub.add_parser("solve", help="dump the inferred solution")
    p_solve.add_argument("path")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_run = sub.add_parser("run", help="run a program's entry expression")
    p_run.add_argument("path")
    p_run.add_argument("--fuel", type=int)
    p_run.add_argument("--trace", help="write the event trace to a file")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sound = sub.add_parser(
        "soundness", help="differential soundness sweep over generated programs"
    )
    p_sound.add_argument("--seeds", type=int, default=100)
    p_sound.add_argument("--budget", type=int, default=10)
    p_sound.add_argument("--fuel", type=int)
    p_sound.add_argument(
        "--corpus", help="also run every checked .lr program in this directory"
    )
    common(p_sound)
    p_sound.set_defaults(func=cmd_soundness)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:  # a crash must not read as a verdict
        message = " ".join(str(exc).split())
        print(
            f"lrcheck: internal error: {type(exc).__name__}: {message}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
