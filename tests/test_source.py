"""Source hygiene: every name a retta module imports is used in that module, every private
constant it defines is read there, every name `retta.__all__` exports is bound, every file is
written through `model.create_file`, every function the benchmark's tracer wraps is bound
where the tracer looks it up, every name a docstring quotes in backticks is bound
somewhere in the package, and no module but memory.py reads the class memory's windows."""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import retta
import retta.cli  # noqa: F401  (the tracer wraps retta.cli functions)

MODULES = sorted(p for p in Path(retta.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` (not `__future__`) that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unread_name():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nnp.zeros(dumps(1))\n"
    assert unused_imports(source) == ["loads", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_constants(source: str) -> list[str]:
    """Module-level `_UPPER_CASE` names that `source` assigns but no expression reads."""
    tree = ast.parse(source)
    defined = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(target, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", target.id)}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(defined - read)


def test_unread_private_constants_finds_a_dead_constant():
    source = "_USED = 1\n_DEAD: float = 2.0\n_lower = 3\nPUBLIC = 4\nx = _USED\n"
    assert unread_private_constants(source) == ["_DEAD"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_constant_it_defines(path):
    assert unread_private_constants(path.read_text()) == []


def writes_outside_the_writer(source: str, writer: str = "create_file") -> list[int]:
    """Lines of `source` outside the function `writer` that open a file for writing:
    an `open` call (built-in or method) with a mode holding w, a, x or +, or a `write_text`
    or `write_bytes` call."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == writer for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                lines.append(node.lineno)
    return sorted(lines)


def test_writes_outside_the_writer_finds_each_way_to_open_for_writing():
    source = ("def create_file(p):\n    return open(p, 'x')\n"
              "open(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode='a')\n"
              "path.open('r+')\npath.write_text('x')\nopen(p, mode)\n")
    assert writes_outside_the_writer(source) == [5, 6, 7, 8, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_writes_files_only_through_create_file(path):
    assert writes_outside_the_writer(path.read_text()) == []


# the window policy of the class memory: its queues, its shared rows and the queue type
WINDOW_NAMES = {"_windows", "_cols", "_Window"}


def window_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) for each read of a name in `WINDOW_NAMES` in `source`: as an attribute
    (`mem._cols`, `memory._Window`), a bare name, or an import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in WINDOW_NAMES:
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in WINDOW_NAMES:
            found.add((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found.update((node.lineno, a.name) for a in node.names if a.name in WINDOW_NAMES)
    return sorted(found)


def test_window_reads_finds_every_way_to_reach_the_windows():
    source = ("from .memory import ClassMemory, _Window\n"
              "w = mem._windows[0]\n"
              "rows = self._cols['z']\n"
              "q = memory._Window(1, 0)\n"
              "ok = mem.windows, mem.cols, Window\n")
    assert window_reads(source) == [(1, "_Window"), (2, "_windows"), (3, "_cols"),
                                    (4, "_Window")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "memory.py"],
                         ids=lambda p: p.name)
def test_only_memory_reads_the_queue_windows(path):
    """The window arithmetic (which rows each queue holds, batch by batch) lives in
    memory.py alone; other modules go through `ClassMemory`'s methods."""
    assert window_reads(path.read_text()) == []


# backticked words in docstrings that name no Python binding: the CLI's subcommands and
# perfbench workloads
DOCSTRING_WORDS = {"analyze", "online"}


def unbound_docstring_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(file, name) for each backticked identifier or dotted name in a docstring of
    `sources` (file name -> source) with a part that no source binds: as a def, class,
    name, attribute, argument, import or module (a file's stem)."""
    bound = {Path(name).stem for name in sources}
    docs = []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Name):
                bound.add(node.id)
            elif isinstance(node, ast.Attribute):
                bound.add(node.attr)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, ast.alias):
                bound.update([node.asname or node.name, *node.name.split(".")])
            elif isinstance(node, ast.ImportFrom) and node.module:
                bound.update(node.module.split("."))
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                docs.append((file, ast.get_docstring(node) or ""))
    quoted = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")
    return sorted({(file, name) for file, doc in docs for name in quoted.findall(doc)
                   if not set(name.split(".")) <= bound})


def test_unbound_docstring_names_finds_a_stale_name():
    source = ('"""`os.path`, `Gone`, `keep.gone` and `f(x)`."""\nimport os.path\n'
              'def keep(arg):\n    """`arg`, `keep`, `os` and `path.join` are bound."""\n'
              '    return arg.join\n')
    assert unbound_docstring_names({"keep.py": source}) == [("keep.py", "Gone"),
                                                            ("keep.py", "keep.gone")]


def test_docstrings_quote_only_bound_names():
    package = Path(retta.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert [(file, name) for file, name in unbound_docstring_names(sources)
            if name not in DOCSTRING_WORDS] == []


def test_every_exported_name_is_bound():
    assert [name for name in retta.__all__ if not hasattr(retta, name)] == []


def load_tracing():
    """perfbench/tracing.py of this checkout, loaded from its path (perfbench is not a package
    on the test path)."""
    path = Path(retta.__file__).parents[2] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize("point", TRACING.WRAP_POINTS, ids=lambda p: f"{p[0]}.{p[1]}")
def test_tracer_target_is_bound_where_the_tracer_wraps_it(point):
    module, path = point[:2]
    owner, attr = TRACING._owner(retta, module, path)
    assert attr in vars(owner), f"perfbench traces {module}.{path}, which no longer exists"
