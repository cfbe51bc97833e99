"""Every imported name is read somewhere in the module that imports it.

A plain `ast` scan, since no linter is a dependency: names bound by
`import` and `from ... import` must appear as a loaded `Name` somewhere in
the module (or in its `__all__`, which is how `lrcheck/__init__.py`
re-exports).  `from __future__` imports are exempt.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = sorted(
    os.path.relpath(p, ROOT)
    for pattern in ("src/lrcheck/*.py", "tests/*.py")
    for p in glob.glob(os.path.join(ROOT, pattern))
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((alias.asname or alias.name, node.lineno))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported if name not in read]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == []


def test_scan_flags_an_unread_import_and_spares_reads_and_reexports():
    source = (
        "from __future__ import annotations\n"
        "import os, itertools.chain as ch\n"
        "from m import a, b as c, d\n"
        "__all__ = ['d']\n"
        "print(os.sep, c)\n"
    )
    assert unused_imports(source) == [("ch", 2), ("a", 3)]
