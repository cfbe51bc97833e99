"""The command line gives the same output under every CPython the project
supports (`requires-python >= 3.10`) that can be found here: each other
minor version's `check --dump-constraints --dump-solution` over the corpus
and its soundness sweep print the same stdout and stderr, and exit with
the same code, as the interpreter running the tests.

Interpreters are looked for as `python3.N` on `PATH` and under
`~/.pyenv/versions/3.N*/bin/python`; one that does not start is absent,
and with none the test is skipped.
"""

import glob
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
PROBE = (
    "import platform, sys; "
    "print(platform.python_implementation(), *sys.version_info[:2])"
)


def _version(exe):
    """The (major, minor) of a CPython at `exe`, or None if it is not one
    or does not start."""
    try:
        probe = subprocess.run(
            [exe, "-c", PROBE], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.SubprocessError):
        return None
    words = probe.stdout.split()
    if probe.returncode or len(words) != 3 or words[0] != "CPython":
        return None
    return int(words[1]), int(words[2])


def other_interpreters():
    """One working CPython per minor version from 3.10 on, other than the
    running interpreter's, by version."""
    minors = range(10, 20)
    found = [shutil.which(f"python3.{n}") for n in minors]
    for n in minors:
        pattern = os.path.expanduser(f"~/.pyenv/versions/3.{n}*/bin/python")
        found += sorted(glob.glob(pattern))
    chosen = {}
    for exe in filter(None, found):
        version = _version(exe)
        if version and version >= (3, 10) and version != sys.version_info[:2]:
            chosen.setdefault(version, exe)
    return sorted(chosen.items())


def _commands():
    corpus = sorted(glob.glob("corpus/*/*.lr", root_dir=ROOT))
    return [
        ["check", *corpus, "--dump-constraints", "--dump-solution"],
        ["soundness", "--seeds", "30", "--corpus", "corpus/accept"],
    ]


def _run(exe, args):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [exe, "-m", "lrcheck.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    return done.stdout, done.stderr, done.returncode


def test_outputs_agree_across_interpreters():
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython >= 3.10 found")
    for args in _commands():
        want = _run(sys.executable, args)
        assert want[0], want[1]
        for version, exe in others:
            assert _run(exe, args) == want, (version, exe, args[0])
