"""Every imported name is read somewhere in the module that imports it,
and every module-level definition of the package somewhere in the package.

A plain `ast` scan, since no linter is a dependency: names bound by
`import` and `from ... import` must appear as a loaded `Name` somewhere in
the module (or in its `__all__`, which is how `lrcheck/__init__.py`
re-exports).  `from __future__` imports are exempt.  A module-level
function or class of `src/lrcheck` must be read somewhere in
`src/lrcheck` outside its own body, as a loaded `Name` or an attribute,
or be listed in an `__all__`: code that only tests reach is dead.  So
must a method of a class of `src/lrcheck`, other than a dunder, unless
`perfbench/layers.py` wraps it by name.  A
parameter of a function of `src/lrcheck` must be read in that function's
body, unless it is `self` or `cls`, its name starts with `_`, or the body
only raises `NotImplementedError`.
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


def _reads(tree, attributes: bool):
    """The names `tree` loads or lists in an `__all__`, and with
    `attributes` the attribute names it reads as well."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif attributes and isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read.update(ast.literal_eval(node.value))
    return read


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((alias.asname or alias.name, node.lineno))
    read = _reads(tree, attributes=False)
    return [(name, line) for name, line in imported if name not in read]


def unread_definitions(sources):
    """The module-level functions and classes of `sources` (path -> text)
    that none of them reads outside the definition itself, as
    (path, name, line): a recursive function read only by itself is dead."""
    statements = [
        (path, node, _reads(node, attributes=True))
        for path, source in sources.items()
        for node in ast.parse(source).body
    ]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (path, node.name, node.lineno)
        for path, node, _ in statements
        if isinstance(node, defs)
        and not any(node.name in read for _, other, read in statements if other is not node)
    ]


def unread_methods(sources, wrapped=()):
    """The methods of the classes of `sources` (path -> text), dunders
    aside, that no code of them reads outside the method's own body and
    whose names are not in `wrapped`, as (path, class.method, line)."""
    fns = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods, units = [], []
    for path, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                units.append(node)
                continue
            for stmt in node.body:
                units.append(stmt)
                if isinstance(stmt, fns) and not stmt.name.startswith("__"):
                    methods.append((path, node.name, stmt))
    reads = [(unit, _reads(unit, attributes=True)) for unit in units]
    return [
        (path, f"{cls}.{fn.name}", fn.lineno)
        for path, cls, fn in methods
        if fn.name not in wrapped
        and not any(fn.name in read for unit, read in reads if unit is not fn)
    ]


def _wrapped_names():
    """The attribute names in the table of `perfbench/layers.py`'s tracer:
    the names it wraps on lrcheck's modules and classes."""
    with open(os.path.join(ROOT, "perfbench", "layers.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    tables = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "table" for t in node.targets)
    ]
    assert len(tables) == 1
    return {row.elts[1].value for row in tables[0].elts}


def _is_stub(fn) -> bool:
    """Whether the body of `fn`, after its docstring, only raises
    `NotImplementedError`."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(source: str):
    """The parameters of the functions in `source` that the function's
    body never reads, as (function, parameter, line)."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_stub(node):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = set().union(*(_reads(stmt, attributes=False) for stmt in node.body))
        unread += [
            (node.name, p.arg, node.lineno)
            for p in params
            if p.arg not in ("self", "cls") and not p.arg.startswith("_")
            and p.arg not in read
        ]
    return unread


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


def _package_sources():
    sources = {}
    for path in FILES:
        if path.startswith(os.path.join("src", "lrcheck")):
            with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
                sources[path] = handle.read()
    assert sources
    return sources


def test_every_package_definition_is_read_in_the_package():
    assert unread_definitions(_package_sources()) == []


def test_every_package_method_is_read_in_the_package():
    assert unread_methods(_package_sources(), _wrapped_names()) == []


def test_scan_flags_an_unread_method_and_spares_reads_dunders_and_wrapped():
    sources = {
        "a.py": (
            "class C:\n"
            "    def __init__(self): self.used()\n"
            "    def used(self): pass\n"
            "    def dead(self): pass\n"
            "    def loop(self): return self.loop()\n"
            "    def traced(self): pass\n"
            "    @property\n"
            "    def shown(self): return 1\n"
        ),
        "b.py": "def f(c): return c.shown\n",
    }
    assert unread_methods(sources, {"traced"}) == [
        ("a.py", "C.dead", 4), ("a.py", "C.loop", 5)
    ]


def test_scan_flags_an_unread_definition_and_spares_reads_and_exports():
    sources = {
        "a.py": (
            "def used(): pass\ndef dead(): pass\nclass Shown: pass\n"
            "def loop(n): return loop(n - 1)\n"
        ),
        "b.py": (
            "import a\n__all__ = ['Shown']\nclass Method:\n"
            "    def m(self): return a.used()\n"
        ),
    }
    assert unread_definitions(sources) == [
        ("a.py", "dead", 2), ("a.py", "loop", 4), ("b.py", "Method", 3)
    ]


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.startswith(os.path.join("src", "lrcheck"))]
)
def test_every_parameter_is_read_in_its_function(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        assert unread_parameters(handle.read()) == []


def test_scan_flags_an_unread_parameter_and_spares_reads_and_stubs():
    source = (
        "def f(a, b, *rest, c, _d, **kw):\n"
        "    def g(x):\n        return a + x\n"
        "    return g(kw)\n"
        "class C:\n"
        "    def m(self, e): return 0\n"
        "    @classmethod\n"
        "    def n(cls, f): return f\n"
        "    def stub(self, h):\n        \"\"\"Docs.\"\"\"\n        raise NotImplementedError\n"
    )
    assert unread_parameters(source) == [
        ("f", "b", 1), ("f", "c", 1), ("f", "rest", 1), ("m", "e", 6)
    ]
