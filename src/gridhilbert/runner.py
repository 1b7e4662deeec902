"""A fold over a sequence of grids, split across processes.

fold(grids, run) returns what the serial loop returns, where run(grid)
gives one grid's (checked, counterexample): walk the grids in order, add
up the counts and stop at the first counterexample, counting it too.

The split reads only each grid's size: one shard per usable CPU, longest
first onto the least-loaded shard.  Shard 0 runs in the caller and each
other shard in a forked child, which sends its records back through a
pipe with marshal; marshal keeps a dict's key order.  A shard runs its
grids in order, records (index, checked, counterexample) for each grid
that ran to completion, and stops at its first grid that fails or raises.

The merge walks the grids in order, adds up the counts and returns at
the first counterexample, and runs in the caller each grid it reaches
with no record.  No shard stops before its own first failure, so the
result is the serial one: a grid that raised raises again here, with its
type, message and traceback, and never past an earlier counterexample.

Every child is reaped before the call returns or raises, and killed
first if the caller's shard or a read raises (KeyboardInterrupt too).  A
child that exits nonzero or sends short data makes the call raise, so a
partial count is never reported.
"""

from __future__ import annotations

import marshal
import os
import threading
from typing import Callable, Sequence

# SIGKILL's number, which POSIX fixes; signal is not imported for it.
_SIGKILL = 9


def _shard_count(n_grids: int) -> int:
    """One shard per usable CPU, at most one per grid, and only one where
    os.fork is missing or another thread is alive: a fork taken while
    another thread holds a lock can deadlock the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(n_grids, cpus))


def _partition(grids, k: int) -> list[list[int]]:
    """The grids' indices in k shards, each in order.

    Longest processing time first: grids in decreasing size, each onto
    the least-loaded shard, ties to the lowest shard index.  The split is
    a function of the grids' sizes and k alone.
    """
    shards, loads = [[] for _ in range(k)], [0] * k
    for i in sorted(range(len(grids)), key=lambda i: -grids[i].size):
        j = loads.index(min(loads))
        shards[j].append(i)
        loads[j] += grids[i].size
    return [sorted(shard) for shard in shards]


def _run_shard(run, grids, shard) -> list[tuple]:
    """A record (index, checked, counterexample) per grid of the shard
    that ran to completion, in order, up to its first grid that fails or
    raises."""
    records = []
    for i in shard:
        try:
            checked, counterexample = run(grids[i])
        except Exception:
            break
        records.append((i, checked, counterexample))
        if counterexample is not None:
            break
    return records


def _fork_shard(run, grids, shard) -> tuple[int, int]:
    """Fork a child that writes the shard's records to a pipe with
    marshal; return its pid and the pipe's read end.  The child leaves by
    os._exit, never returning into the caller or flushing inherited stdio,
    with status 0 only once every byte is written."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                out.write(marshal.dumps(_run_shard(run, grids, shard)))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def fold(grids: Sequence, run: Callable) -> tuple[int, dict | None]:
    """The serial loop's (checked, counterexample) over grids."""
    shards = _partition(grids, _shard_count(len(grids)))
    children, blobs, codes = [], None, []
    try:
        for shard in shards[1:]:
            children.append(_fork_shard(run, grids, shard))
        shard_records = [_run_shard(run, grids, shards[0])]
        # Each read end is closed below, not by its file object.
        blobs = [open(r, "rb", closefd=False).read() for _, r in children]
    finally:
        for pid, r in children:
            os.close(r)
            if blobs is None:
                os.kill(pid, _SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for code, blob in zip(codes, blobs):
        if code:
            raise RuntimeError(f"a shard's child exited with {code}")
        shard_records.append(marshal.loads(blob))
    records = {r[0]: r[1:] for shard in shard_records for r in shard}
    checked = 0
    for i, grid in enumerate(grids):
        n, counterexample = records[i] if i in records else run(grid)
        checked += n
        if counterexample is not None:
            return checked, counterexample
    return checked, None
