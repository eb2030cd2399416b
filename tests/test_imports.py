"""Code hygiene: every name a module imports with ``from ... import`` is used,
every function reads each of its parameters, every module-level private name
is referenced in its module, every public one is exported or read by another
definition, every name the benchmark traces exists, every call shape the
benchmark uses binds, no module but ``logic`` walks an axiom body, and no
environment variable but ``AXF_THREADS`` is read.

``__init__.py`` is skipped by the import check because its imports are the
package's re-exports.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path
from typing import Optional

import pytest

import axf.cli  # every module the benchmark traces, ``axf.cli`` included

ROOT = Path(__file__).resolve().parent.parent
ALL_SOURCES = sorted((ROOT / "src" / "axf").glob("*.py"))
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]

# Methods that take a parameter only to fit a protocol that other
# implementations of it read.
UNREAD_ALLOWED = {"Formula.rebuild", "_Leaf.rebuild"}


def unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_name():
    source = "from typing import Mapping, Optional\n\nx: Optional[int] = None\n"
    assert unused_from_imports(source) == ["line 1: Mapping"]


def unread_parameters(source: str) -> list[str]:
    """``function: parameter`` for every parameter its function body never
    reads, skipping ``self`` and ``cls``; methods are named ``Class.method``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                a = child.args
                params = [
                    arg.arg
                    for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                    if arg is not None and arg.arg not in ("self", "cls")
                ]
                read = {
                    n.id
                    for stmt in child.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend(
                    f"{name}: {param}"
                    for param in params
                    if param not in read and name not in UNREAD_ALLOWED
                )
                visit(child, scope + [child.name])

    visit(ast.parse(source), [])
    return found


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_detects_an_unread_parameter():
    source = (
        "class C:\n"
        "    def m(self, used, unused, *, key=None):\n"
        "        return used, (lambda dropped: 0)\n"
        "def f(x, **extra):\n"
        "    def g(y):\n"
        "        return x\n"
        "    return g\n"
    )
    assert unread_parameters(source) == [
        "C.m: unused", "C.m: key", "f: extra", "f.g: y"
    ]


def defined_names(stmt: ast.stmt) -> list[str]:
    """The function, class or constant names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unreferenced_private_names(source: str) -> list[str]:
    """Every module-level ``_name`` function, class or constant that the
    module never reads."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        for name in defined_names(node):
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    assert unreferenced_private_names(path.read_text(encoding="utf-8")) == []


def test_detects_an_unreferenced_private_name():
    source = (
        "_LIMIT = 3\n"
        "_SPARE: int = 4\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "def _dead():\n"
        "    return 0\n"
        "class _Old:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper()\n"
    )
    assert unreferenced_private_names(source) == [
        "line 2: _SPARE", "line 5: _dead", "line 7: _Old"
    ]


def unneeded_public_names(sources: dict[str, str]) -> list[str]:
    """Every public module-level function, class or constant that neither
    ``__init__`` exports nor any module reads outside its own definition.

    ``sources`` maps module names to their text; a ``from ... import`` in
    another module counts as a read, since the import check above requires
    that it be used."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read: dict[str, set[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.setdefault(node.id, set()).add((module, stmt.lineno))
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        read.setdefault(alias.name, set()).add((module, stmt.lineno))
    found = []
    for module, tree in trees.items():
        if module in ("__init__", "__main__"):
            continue
        for stmt in tree.body:
            for name in defined_names(stmt):
                elsewhere = read.get(name, set()) - {(module, stmt.lineno)}
                if not name.startswith("_") and not elsewhere:
                    found.append(f"{module} line {stmt.lineno}: {name}")
    return found


def test_every_public_name_is_needed():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in ALL_SOURCES}
    assert unneeded_public_names(sources) == []


def test_detects_an_unneeded_public_name():
    sources = {
        "__init__": "from .a import exported\n",
        "a": (
            "LIMIT = 3\n"
            "SPARE: int = 4\n"
            "def exported():\n"
            "    return LIMIT\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Used:\n"
            "    pass\n"
        ),
        "b": "from .a import Used\n\ndef _make():\n    return Used()\n",
    }
    assert unneeded_public_names(sources) == ["a line 2: SPARE", "a line 5: recursive"]


def axf_bindings() -> dict:
    """Every value bound in an ``axf`` module, or in a class it defines."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "axf" or name.startswith("axf."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    out.update(((name, attr, k), v) for k, v in vars(value).items())
    return out


def test_benchmark_traced_names_resolve(monkeypatch):
    """``bench/tracing.py`` wraps its entry points by name; a rename in
    ``axf`` must fail here, not only in traced benchmark runs."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    before = axf_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, owner, attr in tracing.ENTRY_POINTS:
            home = sys.modules[f"axf.{module}"]
            target = home if owner is None else getattr(home, owner)
            assert hasattr(getattr(target, attr), "__wrapped__"), (module, owner, attr)
    finally:
        tracer.uninstall()
    after = axf_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def unresolved_entry_points(entry_points) -> list[tuple]:
    """Every ``(module, owner, attribute)`` that names nothing in ``axf``:
    ``Tracer.install`` looks each one up in the module, or in the class
    ``owner`` names, and raises on a missing name."""
    missing = []
    for module, owner, attr in entry_points:
        home = sys.modules.get(f"axf.{module}")
        target = home if home is None or owner is None else vars(home).get(owner)
        if target is None or attr not in vars(target):
            missing.append((module, owner, attr))
    return missing


def test_every_traced_entry_point_exists(monkeypatch):
    """``bench/run.py --trace 1`` fails if a name ``ENTRY_POINTS`` lists is
    gone from ``axf``; this says which one."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    entry_points = importlib.import_module("tracing").ENTRY_POINTS
    assert entry_points and unresolved_entry_points(entry_points) == []


def test_detects_a_missing_entry_point():
    entry_points = [
        ("logic", None, "check_stratified"),
        ("logic", None, "no_such_function"),
        ("evaluator", "Engine", "run_block"),
        ("evaluator", "Engine", "no_such_method"),
        ("evaluator", "NoSuchClass", "run"),
        ("no_such_module", None, "main"),
    ]
    assert unresolved_entry_points(entry_points) == [
        ("logic", None, "no_such_function"),
        ("evaluator", "Engine", "no_such_method"),
        ("evaluator", "NoSuchClass", "run"),
        ("no_such_module", None, "main"),
    ]


# The positional arguments and keywords ``bench/workloads.py`` passes to
# each ``verify_*`` entry point.
BENCHMARK_CALL_SHAPES = {
    "verify_theorem1": (("program", "index", "universe"), ("states", "mutation")),
    "verify_theorem2": (("program", "index", "universe"), ("states",)),
    "verify_equivalence": (("program", "universe"), ("states",)),
    "verify_aux": (("program", "universe"), ("states",)),
    "verify_order_independence": (("program", "universe"), ("states",)),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_CALL_SHAPES))
def test_benchmark_call_shapes_bind(name):
    """A parameter the benchmark passes must not be removed or renamed
    without failing here, before a benchmark run."""
    args, keywords = BENCHMARK_CALL_SHAPES[name]
    inspect.signature(getattr(axf, name)).bind(*args, **dict.fromkeys(keywords))


def calls_of(source: str, name: str) -> list[int]:
    """Lines of every call of ``name``, as a bare name or an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    )


NOT_LOGIC = [p for p in ALL_SOURCES if p.name != "logic.py"]


@pytest.mark.parametrize("path", NOT_LOGIC, ids=lambda p: p.name)
def test_no_body_walk_outside_logic(path):
    """An axiom walks its body once, when it is built; every other module
    reads ``axiom.occurrences`` instead of walking the body again."""
    assert calls_of(path.read_text(encoding="utf-8"), "iter_atoms") == []


def test_detects_a_body_walk():
    source = (
        "from .logic import iter_atoms\n"
        "import axf\n"
        "a = list(iter_atoms(body))\n"
        "b = axf.logic.iter_atoms(body)\n"
        "c = iter_atoms\n"
    )
    assert calls_of(source, "iter_atoms") == [3, 4]


# The two marks of an atom looked up by a tuple key: ``masks.get(`` of a
# dict keyed by ground atoms, and ``args(env)`` building the argument tuple.
TUPLE_KEY_MARKS = ("masks.get(", "args(env)")


def tuple_key_lookups(source: str) -> list[int]:
    """Lines that carry a mark of a tuple-key atom lookup."""
    return [
        number
        for number, line in enumerate(source.splitlines(), 1)
        if any(mark in line for mark in TUPLE_KEY_MARKS)
    ]


def test_evaluator_looks_atoms_up_by_id():
    """The engine reads an atom's mask at its integer id; no tuple-key path
    is kept beside it."""
    source = (ROOT / "src" / "axf" / "evaluator.py").read_text(encoding="utf-8")
    assert tuple_key_lookups(source) == []


def test_detects_a_tuple_key_lookup():
    source = (
        "a = masks.get((pred, args(env)), 0) & care\n"
        "b = masks[base + env[a] * ca] & care\n"
        "c = masks.get(key, 0)\n"
        "d = lambda env: args(env)\n"
    )
    assert tuple_key_lookups(source) == [1, 3, 4]


# The builtins that turn text into code.
CODE_BUILTINS = ("exec", "eval", "compile")


def code_from_text(source: str) -> list[int]:
    """Lines of every call of ``exec``, ``eval`` or ``compile``, by bare name
    or through ``builtins``; ``re.compile`` and other methods do not count."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id in CODE_BUILTINS
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in CODE_BUILTINS
            and getattr(node.func.value, "id", None) == "builtins"
        )
    )


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_only_the_evaluator_runs_generated_code(path):
    """The evaluator compiles generated bodies, whose source holds no name of
    the program; no other module turns text into code."""
    lines = code_from_text(path.read_text(encoding="utf-8"))
    assert lines == [] or path.name == "evaluator.py" and len(lines) == 2


def test_detects_code_from_text():
    source = (
        "import builtins, re\n"
        "exec(compile(text, name, 'exec'), namespace)\n"
        "pattern = re.compile(text)\n"
        "value = eval(text)\n"
        "builtins.exec(text)\n"
        "run = exec\n"
    )
    assert code_from_text(source) == [2, 2, 4, 5]


# The names through which ``os`` reads the process environment.
ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def environment_reads(source: str) -> list[tuple[int, Optional[str]]]:
    """``(line, variable)`` for every use of the process environment: the
    variable is the literal key of ``environ[...]``, ``environ.get(...)`` or
    ``getenv(...)``, and None for any other use, a renamed import included."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, None) for alias in node.names
                      if alias.name in ENVIRONMENT and alias.asname not in (None, alias.name)]
            continue
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name not in ENVIRONMENT:
            continue
        up, key = parents.get(node), None
        if isinstance(up, ast.Subscript) and up.value is node:
            key = up.slice
        elif isinstance(up, ast.Call) and up.func is node and up.args:
            key = up.args[0]
        elif (isinstance(up, ast.Attribute) and up.attr == "get"
              and isinstance(parents.get(up), ast.Call) and parents[up].args):
            key = parents[up].args[0]
        found.append((node.lineno, key.value if isinstance(key, ast.Constant) else None))
    return sorted(found)


def test_reads_no_environment_variable_but_threads():
    """The worker count is the only setting the environment holds: no
    option is read behind the command line's back."""
    reads = {
        (path.name, variable)
        for path in ALL_SOURCES
        for _, variable in environment_reads(path.read_text(encoding="utf-8"))
    }
    assert reads == {("verifier.py", "AXF_THREADS")}


def test_detects_an_environment_read():
    source = (
        "import os\n"
        "from os import environ, getenv as look\n"
        "a = os.environ.get('AXF_THREADS', '')\n"
        "b = os.environ['AXF_TRACE']\n"
        "c = os.getenv('HOME')\n"
        "d = environ.get(name)\n"
        "e = dict(os.environ)\n"
        "f = look('X')\n"
    )
    assert environment_reads(source) == [
        (2, None), (3, "AXF_THREADS"), (4, "AXF_TRACE"), (5, "HOME"), (6, None), (7, None)
    ]
