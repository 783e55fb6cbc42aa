import os
import signal
import time

import numpy as np
import pytest

from thermaldrift._fork import fork_map


@pytest.fixture
def cores(monkeypatch):
    """Let fork_map see ``n`` usable cores, however many there really are."""
    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    return set_cores


@pytest.fixture(autouse=True)
def deadline():
    """A worker that hangs fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("fork_map did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _walk(x):
    """A random walk, returned with the pid that computed it; later items
    finish first."""
    time.sleep(0.03 * (7 - x))
    rng = np.random.default_rng(x)
    return np.cumsum(rng.standard_normal(100_000)), os.getpid()


def test_results_in_input_order_and_bit_equal_to_inline(cores):
    cores(3)
    items = range(7)
    forked = fork_map(_walk, items)
    inline = [_walk(x) for x in items]
    assert [a.tobytes() for a, _ in forked] == \
        [a.tobytes() for a, _ in inline]
    assert os.getpid() not in {pid for _, pid in forked}


def _reject_two(x):
    if x == 2:
        raise ValueError(f"item {x} rejected")
    return x


def test_exception_reraised_in_caller(cores):
    cores(2)
    with pytest.raises(ValueError, match="item 2 rejected"):
        fork_map(_reject_two, range(4))


def test_child_exit_without_result_raises(cores):
    """The last child started dies: its EOF, not the parent dropping its
    last reference to the pipe, must end the wait."""
    cores(2)
    with pytest.raises(RuntimeError,
                       match="item 2 exited with code 1 before sending"):
        fork_map(lambda x: os._exit(1) if x == 2 else x, range(3))


@pytest.mark.parametrize("n_cores, n_items", [(1, 3), (4, 1)],
                         ids=["one_core", "one_item"])
def test_runs_inline_without_a_process(cores, monkeypatch, n_cores, n_items):
    cores(n_cores)

    def no_fork():
        raise AssertionError("fork_map started a process")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(lambda x: (x, os.getpid()), range(n_items)) == \
        [(x, os.getpid()) for x in range(n_items)]
