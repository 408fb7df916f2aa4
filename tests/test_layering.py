"""Import layers inside the package.

`runtime` imports nothing from the package, so every module may enter its
pool. `container` imports only `errors`, so every module may read and write
its files. `analysis` does not import `train`, so the training loop may import
`analysis` to run its diagnostics between steps without an import cycle.
"""

import ast
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


def _imports_of(name: str) -> set[str]:
    return _package_imports(ast.parse((_SRC / name).read_text()))


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
