"""verify_suite splits a suite's grids across processes and returns the
serial loop's SuiteResult: the same count, the same first counterexample,
the same exception, and no child process left behind."""

import marshal
import os
import threading
import time

import pytest

from gridhilbert import verify
from gridhilbert.verify import SUITES, Limits, SuiteResult, verify_suite

_SMALL = Limits(max_points=8, max_cube=3)
# The sweep_rank workload's limits (bench/workloads.py).
_SWEEP_RANK = Limits(max_points=18, max_cube=5)
# The planted suite's grids, and the two shards they are split into.
FAMILY = verify._family(_SMALL)
SHARDS = verify._partition(FAMILY, 2)


def serial(name, limits):
    """The reference: the runner's loop before the grids were split."""
    grids, checks = SUITES[name]
    checked = 0
    for grid in grids(limits):
        for counterexample in checks(grid, limits):
            checked += 1
            if counterexample is not None:
                return SuiteResult(name, False, checked, counterexample)
    return SuiteResult(name, True, checked)


class Planted(Exception):
    pass


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, whatever the host has, and the pids of the
    children forked in this process."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def plant(monkeypatch, plants):
    """Register the suite "planted": grid-hilbert, except that for each
    (i, item, what) in plants, the item-th check on the i-th grid of the
    family raises what if it is an exception, yields what() if it is
    callable, and yields what otherwise."""
    grids, checks = SUITES["grid-hilbert"]
    at = {FAMILY[i].spec(): (item, what) for i, item, what in plants}

    def planted(grid, limits):
        item, what = at.get(grid.spec(), (None, None))
        for k, result in enumerate(checks(grid, limits)):
            if k != item:
                yield result
            elif isinstance(what, BaseException):
                raise what
            else:
                yield what() if callable(what) else what

    monkeypatch.setitem(SUITES, "planted", (grids, planted))


@pytest.mark.parametrize("limits", [_SMALL, _SWEEP_RANK], ids=["small", "sweep_rank"])
@pytest.mark.parametrize("name", list(SUITES))
def test_split_results_equal_the_serial_fold(forks, name, limits):
    want = serial(name, limits)
    n_grids = len(SUITES[name][0](limits))
    assert verify_suite(name, limits) == want
    assert len(forks) == min(n_grids, 2) - 1
    assert no_children()


def test_the_partition_is_longest_first_onto_the_least_loaded_shard():
    family = verify._family(_SWEEP_RANK)
    shards = verify._partition(family, 2)
    assert shards == [[0, 3, 6, 7, 8, 11, 14], [1, 2, 4, 5, 9, 10, 12, 13]]
    assert [sum(family[i].size for i in shard) for shard in shards] == [83, 83]
    assert sorted(sum(shards, [])) == list(range(len(family)))
    assert verify._partition(family, 1) == [list(range(len(family)))]


def test_a_payload_in_the_second_shard_is_merged_in_sweep_order(forks, monkeypatch):
    """The first failure is the shard-1 grid's, and a later shard-0 grid
    fails too: the count is the serial one, not shard 0's run first."""
    i = SHARDS[1][1]
    j = next(k for k in SHARDS[0] if k > i)
    plant(monkeypatch, [(i, 2, {"planted": i}), (j, 0, {"planted": j})])
    result = verify_suite("planted", _SMALL)
    assert result == serial("planted", _SMALL)
    assert result.counterexample == {"planted": i}
    assert forks and no_children()


@pytest.mark.parametrize("shard", [0, 1])
def test_an_exception_in_a_shard_propagates_with_its_type_and_message(
    forks, monkeypatch, shard
):
    i = SHARDS[shard][1]
    plant(monkeypatch, [(i, 3, Planted(f"on {FAMILY[i].spec()}"))])
    with pytest.raises(Planted, match=f"^on {FAMILY[i].spec()}$") as raised:
        verify_suite("planted", _SMALL)
    assert raised.traceback[-1].name == "planted"
    assert forks and no_children()


@pytest.mark.parametrize("failing,raising", [(0, 1), (1, 0)])
def test_an_exception_after_an_earlier_counterexample_does_not_propagate(
    forks, monkeypatch, failing, raising
):
    i = SHARDS[failing][1]
    j = next(k for k in SHARDS[raising] if k > i)
    plant(monkeypatch, [(i, 1, {"planted": i}), (j, 0, Planted("too late"))])
    result = verify_suite("planted", _SMALL)
    assert result.counterexample == {"planted": i}
    assert result == serial("planted", _SMALL)
    assert forks and no_children()


def test_a_child_that_exits_nonzero_makes_the_call_raise(forks, monkeypatch):
    parent = os.getpid()

    def exit_in_child():
        if os.getpid() != parent:
            os._exit(3)

    plant(monkeypatch, [(SHARDS[1][0], 0, exit_in_child)])
    with pytest.raises(RuntimeError, match="exited with 3"):
        verify_suite("planted", _SMALL)
    assert forks and no_children()


def test_short_or_missing_records_make_the_call_raise(forks, monkeypatch):
    dumps = marshal.dumps
    monkeypatch.setattr(marshal, "dumps", lambda records: dumps(records)[:-1])
    with pytest.raises(EOFError):
        verify_suite("grid-hilbert", _SMALL)
    monkeypatch.setattr(marshal, "dumps", lambda records: dumps(records[:-1]))
    with pytest.raises(RuntimeError, match="no record for grid"):
        verify_suite("grid-hilbert", _SMALL)
    assert len(forks) == 2 and no_children()


def test_an_interrupt_in_this_process_kills_the_children(forks, monkeypatch):
    """The child sleeps; the interrupt in shard 0 kills it, not waits for it."""
    parent = os.getpid()

    def interrupt_here_sleep_there():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    plant(monkeypatch, [(shard[0], 0, interrupt_here_sleep_there) for shard in SHARDS])
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify_suite("planted", _SMALL)
    assert time.perf_counter() - start < 30
    assert forks and no_children()


def _no_fork():
    raise AssertionError("forked")


def test_one_usable_cpu_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", _no_fork)
    for name in ("grid-hilbert", "wilson", "shattering"):
        assert verify_suite(name, _SMALL) == serial(name, _SMALL)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify_suite("closure-laws", _SMALL) == serial("closure-laws", _SMALL)


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", _no_fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert verify_suite("wilson", _SMALL) == serial("wilson", _SMALL)
    finally:
        done.set()
        thread.join()
