"""`workers.fork_map`: the same results in item order for any CPU count,
errors from a child raised in the caller, and no child left unreaped."""

import os
import signal
import time

import pytest

from lexlab.workers import fork_map

from helpers import assert_no_children, set_usable_cpus


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that hangs instead of waiting on it; forked children
    inherit no alarm."""

    def expire(signum, frame):
        raise TimeoutError("fork_map test hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class Unrebuildable(Exception):
    def __init__(self, a, b):  # unpickling calls it with the message alone
        super().__init__(f"{a} {b}")


def closure_of(x):
    return lambda: x


def raise_unrebuildable(x):
    if x:
        raise Unrebuildable(x, x)
    return x


class TestForkMap:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_in_item_order_for_any_cpu_count(self, monkeypatch, cpus):
        set_usable_cpus(monkeypatch, cpus)
        # 200 kB per item outgrows the pipe buffer.
        items = list(range(7))
        assert fork_map(lambda x: (x * x, bytes([x]) * 200_000), items) == [
            (x * x, bytes([x]) * 200_000) for x in items
        ]
        assert fork_map(lambda x: x, []) == []
        assert_no_children()

    def test_items_are_dealt_round_robin(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        pids = fork_map(lambda x: os.getpid(), range(5))
        assert pids[0::2] == [os.getpid()] * 3
        assert pids[1] == pids[3] != os.getpid()
        set_usable_cpus(monkeypatch, 1)
        assert fork_map(lambda x: os.getpid(), range(5)) == [os.getpid()] * 5
        assert_no_children()

    def test_a_child_exception_reaches_the_caller(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)

        def fn(x):
            if x == 3:
                raise KeyError(f"item {x}")
            return x

        with pytest.raises(KeyError, match="^'item 3'$"):
            fork_map(fn, range(4))
        assert_no_children()

    def test_a_child_that_exits_without_a_result(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"exit status 3\)$"):
            fork_map(lambda x: os._exit(3) if x == 1 else x, range(2))
        assert_no_children()

    @pytest.mark.parametrize("fn", [closure_of, raise_unrebuildable])
    def test_an_outcome_that_cannot_travel(self, monkeypatch, fn):
        set_usable_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="could not pickle its outcome"):
            fork_map(fn, range(2))
        assert_no_children()

    def test_a_failure_in_the_callers_share_kills_the_children(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)

        def fn(x):
            if x == 0:
                raise ValueError("caller's share")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(ValueError, match="caller's share"):
            fork_map(fn, range(2))
        assert time.monotonic() - start < 10
        assert_no_children()

    def test_a_nested_call_forks_nothing(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        inner = fork_map(lambda x: fork_map(lambda y: os.getpid(), range(3)), range(2))[1]
        assert inner[0] != os.getpid()
        assert inner == [inner[0]] * 3
        assert_no_children()
