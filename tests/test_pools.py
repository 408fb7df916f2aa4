"""Every thread pool in the package comes from `runtime.thread_pair`.

That context manager pins BLAS to one thread, puts the threads on one
malloc arena and joins them when its block exits, so new parallel code
should enter it instead of constructing a `ThreadPoolExecutor` of its own.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "mwmae"
_ALLOWED = {("runtime.py", "thread_pair")}


def _pool_constructions(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function, line) of each `ThreadPoolExecutor(...)` call,
    under any name it was imported as."""
    names = {"ThreadPoolExecutor"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == "ThreadPoolExecutor" and alias.asname
    }
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name in names:
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_thread_pools_come_from_the_helper():
    found = [f"{path.name}:{line} in {func}"
             for path in sorted(_SRC.glob("*.py"))
             for func, line in _pool_constructions(ast.parse(path.read_text()))
             if (path.name, func) not in _ALLOWED]
    assert found == [], f"construct pools through runtime.thread_pair: {found}"


def test_the_helper_is_where_the_pool_is_made():
    tree = ast.parse((_SRC / "runtime.py").read_text())
    assert [func for func, _ in _pool_constructions(tree)] == ["thread_pair"]


def test_the_check_finds_a_pool_under_any_name():
    tree = ast.parse(
        "import concurrent.futures as cf\n"
        "from concurrent.futures import ThreadPoolExecutor as Pool\n"
        "pool = cf.ThreadPoolExecutor(2)\n"
        "def run():\n"
        "    with Pool(max_workers=2) as p:\n"
        "        return p\n"
    )
    assert _pool_constructions(tree) == [("<module>", 3), ("run", 5)]
