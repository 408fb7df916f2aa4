"""The package's parallel helpers, and the BLAS and malloc settings they run
under: one thread pool (`thread_pair`) and one forked worker process
(`worker_process`) with the shared arrays it works on (`shared_zeros`). It
imports nothing from the package, so any module may use it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import pickle
import signal
import traceback
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

# Seconds a worker may take to exit once the parent has closed its pipe. It
# is idle by then and exits at once, so only a worker that never sees EOF
# takes longer.
_EXIT_TIMEOUT_S = 10.0


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed step temporaries in this process's heap (glibc only).

    By default glibc serves large arrays from their own mmap and trims the
    heap top on free, so every step returns its MB-sized score arrays to
    the kernel and faults them in again. Arrays up to 32 MiB now come from
    the heap, and the heap keeps up to 64 MiB of free space at its top.
    Every thread allocates from that one heap (one arena): a pool thread
    with its own arena would keep its freed memory there while later work
    grows the main heap. This changes no arithmetic. It holds for the
    whole process and is set once; where there is no glibc `mallopt` it
    does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


@functools.cache
def _blas_thread_hooks():
    """numpy's OpenBLAS (get, set) thread-count functions, or None.

    numpy's wheels bundle an OpenBLAS built by the scipy-openblas project,
    whose symbols carry that prefix; they belong to numpy's copy, and scipy
    plays no part. The numpy extension module links that library, so a
    lookup through it finds them without naming the library's file.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def one_blas_thread():
    """A block that runs after `_keep_freed_memory()`, with BLAS on one thread.

    Each thread or process of the package then keeps its matmuls on its own
    core, and the numbers do not depend on the library's thread count. A
    process forked inside the block inherits the setting. The caller's
    count comes back on every exit. It is process-wide, so blocks on
    different threads must not overlap. Without numpy's OpenBLAS hooks,
    BLAS is left as it is.
    """
    _keep_freed_memory()
    get, set_ = _blas_thread_hooks() or (lambda: None, lambda count: None)
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


@contextlib.contextmanager
def thread_pair():
    """Yield `run(fn, items)`: `[fn(x) for x in items]` on a two-thread pool.

    `items` is a list or range. Results and the first exception come in its
    order; a raise cancels the tasks not yet started. A call with fewer than
    two items runs on the calling thread. The pool starts a thread only for
    a submitted task, so a block without such calls starts none, and it
    joins its threads when the block exits. `fn` may run on a pool thread,
    so per-thread state such as `no_grad` must be entered inside it. The
    block runs inside `one_blas_thread()`.
    """
    with one_blas_thread(), ThreadPoolExecutor(max_workers=2) as pool:
        def run(fn, items) -> list:
            return list((pool.map if len(items) > 1 else map)(fn, items))

        yield run


class WorkerError(RuntimeError):
    """An exception of the worker process that could not be sent back as
    itself; the message names its type and text."""


class WorkerTraceback(Exception):
    """The worker's formatted traceback, set as the `__cause__` of every
    exception that `worker_process` raises on the worker's behalf."""


def shared_zeros(*shape: int) -> np.ndarray:
    """A zeroed float64 array in anonymous `MAP_SHARED` memory: a process
    forked after this call reads and writes the same pages."""
    return np.ndarray(shape, np.float64, buffer=mmap.mmap(-1, 8 * math.prod(shape)))


def _fork_context():
    """multiprocessing's `fork` context, or None where the platform has no
    `fork` start method. multiprocessing is imported here, so a process
    that never starts a worker never loads it."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _portable(exc: BaseException) -> BaseException:
    """`exc` if it survives a pickle round trip, else a WorkerError that
    names its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return WorkerError(f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}")


def _serve(fn, conn, parent_end) -> None:
    """The worker's loop: for each `args` received, send back `fn(*args)` or
    the exception it raised, until the pipe reaches EOF.

    The worker closes its copy of the parent's end first, so the pipe also
    reaches EOF when the parent dies, even by SIGKILL. Ctrl-C reaches the
    whole process group; the parent handles it and ends the worker.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            args = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, fn(*args), None)
        except Exception as exc:  # anything else ends the worker
            reply = (False, _portable(exc), traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


@contextlib.contextmanager
def worker_process(fn):
    """Yield `start(*args) -> wait`, where `wait()` returns `fn(*args)` or
    raises the exception it raised.

    Where the `fork` start method exists, `fn` runs in one worker process,
    forked on entry, so it sees the caller's memory as it was then; arrays
    from `shared_zeros` made before entry stay shared both ways. `args`
    and results cross a `multiprocessing` Pipe, so they must pickle. An
    exception that pickles is raised as itself, any other as a
    `WorkerError`; either way its `__cause__` is a `WorkerTraceback` with
    the worker's traceback. A worker that dies without replying raises
    `WorkerError`. On a normal exit the pipe is closed and the worker,
    idle by then, exits at its EOF; one still alive `_EXIT_TIMEOUT_S`
    later is killed and raises `WorkerError`. On an error exit it is
    killed, since its reply is not wanted. Both join it, so no worker
    outlives the block. Each `start` must be followed by its `wait`
    before the next.

    OpenBLAS's pool threads may be alive on entry, since pinning BLAS to
    one thread does not end them. OpenBLAS's own `pthread_atfork` handler
    ends them just before the fork, and each process starts them again at
    its next multi-threaded BLAS call. A caller
    without threads of its own therefore forks with one thread, and
    Python 3.12+ gives no "multi-threaded fork" DeprecationWarning. A
    caller that does run threads gets that warning, rightly: the child
    holds only the forking thread, and a lock another thread held at the
    fork stays held there.

    Elsewhere `wait()` calls `fn(*args)` on the calling thread, so work
    done between `start` and `wait` runs first in both cases.
    """
    ctx = _fork_context()
    if ctx is None:
        yield lambda *args: functools.partial(fn, *args)
        return
    conn, child_end = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(fn, child_end, conn), daemon=True)
    proc.start()
    child_end.close()

    def wait():
        try:
            ok, value, tb = conn.recv()
        except EOFError:
            proc.join()
            raise WorkerError(f"worker process {proc.pid} exited with code "
                              f"{proc.exitcode} before replying") from None
        if ok:
            return value
        value.__cause__ = WorkerTraceback(tb)
        raise value

    def start(*args):
        conn.send(args)
        return wait

    try:
        yield start
    except BaseException:
        proc.kill()
        raise
    finally:
        conn.close()
        proc.join(_EXIT_TIMEOUT_S)
    if proc.exitcode is None:
        proc.kill()
        proc.join()
        raise WorkerError(f"worker process {proc.pid} did not exit within "
                          f"{_EXIT_TIMEOUT_S} s of its pipe closing; killed")
