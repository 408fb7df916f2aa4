"""The package's one thread pool, and the BLAS and malloc settings it runs
under. It imports nothing from the package, so any module may use it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


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
def thread_pair():
    """Yield `run(fn, items)`: `[fn(x) for x in items]` on a two-thread pool.

    `items` is a list or range. Results and the first exception come in its
    order; a raise cancels the tasks not yet started. A call with fewer than
    two items runs on the calling thread. The pool starts a thread only for
    a submitted task, so a block without such calls starts none, and it
    joins its threads when the block exits. `fn` may run on a pool thread,
    so per-thread state such as `no_grad` must be entered inside it.

    The block runs after `_keep_freed_memory()`, with BLAS on one thread:
    each thread's matmuls stay on its own core, and the numbers do not
    depend on the library's thread count. The caller's count comes back on
    every exit. It is process-wide, so blocks on different threads must not
    overlap. Without numpy's OpenBLAS hooks, BLAS is left as it is.
    """
    _keep_freed_memory()
    get, set_ = _blas_thread_hooks() or (lambda: None, lambda count: None)
    saved = get()
    set_(1)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            def run(fn, items) -> list:
                return list((pool.map if len(items) > 1 else map)(fn, items))

            yield run
    finally:
        set_(saved)
