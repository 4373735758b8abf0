"""Source hygiene: every name a retta module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import retta

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
