"""`runtime.worker_process`: one forked worker, its replies and its end."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from mwmae import runtime
from mwmae.runtime import WorkerError, WorkerTraceback, shared_zeros, worker_process

from _toy import ShardFailure, Unpicklable, alive, blas_threads  # noqa: F401 (fixture)


def test_results_come_back_in_call_order():
    with worker_process(lambda a, b: (os.getpid(), a * b)) as start:
        replies = [start(k, 3)() for k in range(4)]
    pids = {pid for pid, _ in replies}
    assert [v for _, v in replies] == [0, 3, 6, 9]
    assert len(pids) == 1 and os.getpid() not in pids
    assert not alive(pids.pop())


def test_shared_arrays_are_shared_both_ways():
    seen = shared_zeros(3)
    written = shared_zeros(2, 2)

    def fn(k):
        written[k] = seen.sum()  # written after the fork, read here
        return True

    with worker_process(fn) as start:
        for k in range(2):
            seen[:] = [k, 1.0, 2.0]
            assert start(k)()
    assert written.tolist() == [[3.0, 3.0], [4.0, 4.0]]


def test_without_fork_wait_runs_the_call_here(monkeypatch):
    monkeypatch.setattr(runtime, "_fork_context", lambda: None)
    calls = []
    with worker_process(lambda k: calls.append((k, threading.get_ident())) or k) as start:
        wait = start(5)
        assert calls == []
        assert wait() == 5
    assert calls == [(5, threading.get_ident())]


@pytest.mark.parametrize("error", [ShardFailure, Unpicklable, KeyError])
def test_an_exception_comes_back_with_its_traceback(error):
    def fn(fail):
        if fail:
            raise error("in the worker")
        return "still serving"

    raised, match = ((WorkerError, r"^_toy\.Unpicklable: in the worker$")
                     if error is Unpicklable else (error, "in the worker"))
    with worker_process(fn) as start:
        with pytest.raises(raised, match=match) as caught:
            start(True)()
        assert start(False)() == "still serving"
    assert type(caught.value) is raised
    cause = caught.value.__cause__
    assert isinstance(cause, WorkerTraceback)
    assert "in fn" in str(cause) and "in the worker" in str(cause)


def test_a_worker_that_dies_raises_worker_error():
    with worker_process(lambda: os._exit(3)) as start:
        with pytest.raises(WorkerError, match="exited with code 3 before replying"):
            start()()


def test_an_error_in_the_block_ends_a_busy_worker():
    pid = shared_zeros(1)

    def fn():
        pid[0] = os.getpid()
        time.sleep(60)

    began = time.monotonic()
    with pytest.raises(ShardFailure):
        with worker_process(fn) as start:
            start()
            while not pid[0]:
                time.sleep(0.01)
            raise ShardFailure("the caller's own error")
    assert time.monotonic() - began < 30
    assert not alive(int(pid[0]))


def test_a_worker_that_never_sees_eof_is_killed(monkeypatch):
    serve = runtime._serve

    def serve_keeping_the_parent_end(fn, conn, parent_end):
        os.dup(parent_end.fileno())  # a copy the worker never closes
        serve(fn, conn, parent_end)

    monkeypatch.setattr(runtime, "_serve", serve_keeping_the_parent_end)
    monkeypatch.setattr(runtime, "_EXIT_TIMEOUT_S", 0.5)
    began = time.monotonic()
    with pytest.raises(WorkerError, match="did not exit within 0.5 s"):
        with worker_process(os.getpid) as start:
            pid = start()()
    assert time.monotonic() - began < 30
    assert not alive(pid)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc thread list")
def test_the_fork_leaves_no_blas_thread_running(blas_threads):
    # OpenBLAS ends its pool threads before a fork, so a caller without
    # threads of its own forks with one: Python 3.12+ then has no
    # multi-threaded fork to warn about.
    def threads() -> int:
        return len(os.listdir("/proc/self/task"))

    blas_threads[1](2)
    a = np.random.default_rng(0).normal(size=(600, 600))
    a @ a
    assert threads() > threading.active_count()  # the pool is running
    with worker_process(threads) as start:
        here = threads()
        there = start()()
    assert here == threading.active_count() and there == 1


def test_an_unsharded_process_never_imports_multiprocessing():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys, mwmae.cli\n"
            "from _toy import tiny_config, toy_spectrograms, toy_train_config\n"
            "from mwmae.train import train\n"
            "train(toy_spectrograms(8), tiny_config(), toy_train_config(), max_steps=2)\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
