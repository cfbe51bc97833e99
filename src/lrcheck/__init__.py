"""Refinement type checker, liquid inference, and borrow-instrumented
interpreter for the .lr core language."""

from .harness import generate_program, run_and_verify
from .interp import run
from .oracle import Oracle, Query, Verdict
from .parser import ParseError, parse_program
from .printer import print_program
from .typeck import Report, check_program

__version__ = "0.1.0"

__all__ = [
    "Oracle",
    "ParseError",
    "Query",
    "Report",
    "Verdict",
    "check_program",
    "generate_program",
    "parse_program",
    "print_program",
    "run",
    "run_and_verify",
    "__version__",
]
