"""Import layers inside the package.

`runtime` imports nothing from the package, so every module may enter its
pool. `container` imports only `errors`, so every module may read and write
its files. `analysis` does not import `train`, so the training loop may import
`analysis` to run its diagnostics between steps without an import cycle.
Only `container` parses JSON, so every JSON file the package reads gets the
same checks and the same errors. Outside the standard library the package
imports only numpy, so numpy is its one runtime dependency.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "mwmae"


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, in any form and at any depth;
    the package itself is `mwmae`, and a name imported from it counts as
    the module of that name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mwmae":
                    found.add(parts[1] if len(parts) > 1 else "mwmae")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "mwmae":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # `from . import x` or `from mwmae import x`
                found.update(alias.name for alias in node.names)
    return found


def _outside_imports(tree: ast.Module) -> set[str]:
    """The top-level names of the modules a module imports by absolute name,
    at any depth, that are neither the standard library's, numpy nor the
    package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"numpy", "mwmae"}


def _imports_of(name: str) -> set[str]:
    return _package_imports(ast.parse((_SRC / name).read_text()))


def _json_parses(tree: ast.Module) -> list[int]:
    """Lines that call `json.load` or `json.loads`, or import either by name."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name in ("load", "loads") for alias in node.names):
            found.append(node.lineno)
    return sorted(found)


def test_runtime_imports_nothing_from_the_package():
    assert _imports_of("runtime.py") == set()


def test_container_imports_only_errors():
    assert _imports_of("container.py") <= {"errors"}


def test_analysis_does_not_import_train():
    assert "train" not in _imports_of("analysis.py")


def test_the_check_finds_package_imports_in_every_form():
    tree = ast.parse(
        "import numpy as np\n"
        "from __future__ import annotations\n"
        "from .model import MaeConfig\n"
        "from . import tensor\n"
        "import mwmae.audio\n"
        "import mwmae\n"
        "from mwmae import synth\n"
        "from mwmae.errors import ContractError\n"
        "def late():\n"
        "    from .train import train\n"
    )
    assert _package_imports(tree) == {"model", "tensor", "audio", "mwmae", "synth",
                                      "errors", "train"}


def test_only_container_parses_json():
    found = {path.name: lines for path in sorted(_SRC.glob("*.py"))
             if path.name != "container.py"
             and (lines := _json_parses(ast.parse(path.read_text())))}
    assert found == {}, "read JSON files with container.read_json_object"


def test_the_check_finds_json_parses_in_every_form():
    tree = ast.parse(
        "import json\n"
        "json.dumps({})\n"
        "doc = json.loads(text)\n"
        "from json import load\n"
        "def late(fh):\n"
        "    return json.load(fh)\n"
        "parse = json.loads\n"
    )
    assert _json_parses(tree) == [3, 4, 6, 7]


def test_numpy_is_the_only_import_outside_the_standard_library():
    found = {path.name: names for path in sorted(_SRC.glob("*.py"))
             if (names := _outside_imports(ast.parse(path.read_text())))}
    assert found == {}


def test_the_check_finds_outside_imports_in_every_form():
    tree = ast.parse(
        "import numpy as np\n"
        "import os.path\n"
        "from __future__ import annotations\n"
        "from . import tensor\n"
        "from .errors import ContractError\n"
        "import mwmae.audio\n"
        "from numpy.lib.stride_tricks import sliding_window_view\n"
        "import scipy.special\n"
        "from scipy.special import erf\n"
        "import threadpoolctl as tp, json\n"
        "def late():\n"
        "    from hypothesis import given\n"
    )
    assert _outside_imports(tree) == {"scipy", "threadpoolctl", "hypothesis"}


def test_the_cli_loads_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys, mwmae.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
