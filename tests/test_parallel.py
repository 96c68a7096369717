"""replica_map as a fork-join: the caller is worker 0 and forks one child
per extra worker. Results, exceptions and the absence of leftover children
must not depend on the thread count. No test starts more than 4 processes
at once."""

import os
import signal
import time
from contextlib import contextmanager

import pytest

from zrp.errors import ConfigError, WorkerError
from zrp.parallel import replica_map, resolve_threads


def _cube(i):
    return i ** 3


def _affine(i, base):
    return base + i


class Odd(Exception):
    pass


def _raise_at(i, bad):
    if i in bad:
        raise Odd(f"replica {i}")
    return i


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _deadline(seconds):
    """Fail instead of hanging; alarms are not inherited across fork."""
    def expire(signum, frame):
        raise TimeoutError(f"replica_map did not return in {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8])
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_replica_map_order_and_thread_independence(threads, n):
    assert replica_map(_cube, n, threads=threads) == [k ** 3 for k in range(n)]
    _assert_no_children()


def test_replica_map_passes_args():
    for threads in (1, 2):
        assert replica_map(_affine, 4, threads=threads, args=(10,)) == [10, 11, 12, 13]


def test_closure_runs_at_two_threads():
    scale = 7
    assert replica_map(lambda i: scale * i, 5, threads=2) == [0, 7, 14, 21, 28]


def test_results_larger_than_a_pipe_buffer():
    out = replica_map(lambda i: bytes(100_000) + bytes([i]), 3, threads=3)
    assert [len(b) for b in out] == [100_001] * 3
    assert [b[-1] for b in out] == [0, 1, 2]


# at threads=2 the caller runs the even replicas and the child the odd ones
@pytest.mark.parametrize("bad,first", [({2, 5}, 2), ({3, 4}, 3)],
                         ids=["callers-share", "childs-share"])
def test_lowest_replica_exception_is_raised(bad, first):
    for threads in (1, 2):
        with pytest.raises(Odd, match=f"^replica {first}$"):
            replica_map(_raise_at, 8, threads=threads, args=(bad,))
        _assert_no_children()


def _die(i, how):
    if i == 1:
        if how == "signal":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3)
    return i


@pytest.mark.parametrize("how,status", [("signal", -signal.SIGKILL), ("exit", 3)])
def test_child_that_dies_without_reporting(how, status):
    with _deadline(60), pytest.raises(WorkerError, match=f"exit status {status} "):
        replica_map(_die, 4, threads=2, args=(how,))
    _assert_no_children()


def test_unpicklable_result_is_a_worker_error():
    with _deadline(60), pytest.raises(WorkerError, match="exit status 1 "):
        replica_map(lambda i: (lambda: i), 2, threads=2)
    _assert_no_children()


class Stop(BaseException):
    pass


def _stop_or_sleep(i):
    if i == 0:
        raise Stop
    time.sleep(60)


def test_caller_interrupted_stops_the_children():
    t0 = time.monotonic()
    with _deadline(30), pytest.raises(Stop):
        replica_map(_stop_or_sleep, 2, threads=2)
    assert time.monotonic() - t0 < 30
    _assert_no_children()


def test_no_fork_is_a_config_error(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.delenv("ZRP_THREADS", raising=False)
    with pytest.raises(ConfigError, match="os.fork"):
        resolve_threads(2)
    with pytest.raises(ConfigError, match="os.fork"):
        replica_map(_cube, 4, threads=2)
    monkeypatch.setenv("ZRP_THREADS", "2")
    with pytest.raises(ConfigError, match="os.fork"):
        resolve_threads()
    monkeypatch.delenv("ZRP_THREADS")
    assert resolve_threads() == 1
    assert replica_map(_cube, 4, threads=1) == [0, 1, 8, 27]
