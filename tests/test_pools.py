"""Every thread pool in the package comes from `runtime.thread_pair`, and
every process from `runtime.worker_process`.

Those context managers pin BLAS to one thread, put the threads on one
malloc arena and join their threads or worker when the block exits, so new
parallel code should enter one of them instead of constructing a
`ThreadPoolExecutor`, importing `multiprocessing` or calling `os.fork`.
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


_PROCESS_ALLOWED = {("runtime.py", "_fork_context")}


def _process_starts(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function, line) of each import of `multiprocessing`, of
    one of its modules or of `os.fork`, and of each call of a `fork`."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            names = []
        if any(name.split(".")[0] == "multiprocessing" or name == "os.fork" for name in names):
            found.append((func, node.lineno))
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name == "fork":
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_processes_come_from_the_helper():
    found = [f"{path.name}:{line} in {func}"
             for path in sorted(_SRC.glob("*.py"))
             for func, line in _process_starts(ast.parse(path.read_text()))
             if (path.name, func) not in _PROCESS_ALLOWED]
    assert found == [], f"start processes through runtime.worker_process: {found}"


def test_the_helper_is_where_multiprocessing_is_imported():
    tree = ast.parse((_SRC / "runtime.py").read_text())
    assert [func for func, _ in _process_starts(tree)] == ["_fork_context"]


def test_the_check_finds_a_process_start_in_every_form():
    tree = ast.parse(
        "import multiprocessing as mp\n"
        "from multiprocessing import get_context\n"
        "import multiprocessing.connection\n"
        "from os import fork as f\n"
        "def run():\n"
        "    pid = os.fork()\n"
        "    return f()\n"
    )
    assert _process_starts(tree) == [("<module>", 1), ("<module>", 2), ("<module>", 3),
                                     ("<module>", 4), ("run", 6)]
