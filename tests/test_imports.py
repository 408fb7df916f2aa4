"""Every name a package module imports is used in that module.

`__init__.py` only re-exports, so it is not checked. The one allowed unused
import is `cli.logmel`: perfbench's tracer wraps it by that name.
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "mwmae"
_ALLOWED = {("cli.py", "logmel")}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in _SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    unused = [u for u in unused if (path.name, u.split()[0]) not in _ALLOWED]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nloads('1')\n")
    assert _unused_imports(tree) == ["dumps (line 2)", "os (line 1)"]
