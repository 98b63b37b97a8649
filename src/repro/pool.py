"""The process-wide worker pool the attention kernels' independent work
runs on.

These kinds of work go here, and nothing else:

* the items of a packed prefill or decode dispatch
  (:func:`~repro.attention.packed.packed_block_sparse_attention`,
  :func:`~repro.attention.packed.packed_decode_attention`) -- one
  co-scheduled request each, reading its own KV and writing its own
  output -- when at least two of them clear a work floor;
* otherwise the dense q-blocks of a packed attention item -- 64-row blocks
  that write disjoint output rows and share no state;
* the row parts of a prefill step's token-packed projection GEMMs, each
  rotating its own rows (:class:`~repro.model.layers.AttentionLayer`).

Each computes the same bits on any thread and in any order, so pooled and
inline execution are bitwise equal.  The pool is as wide as the set of CPUs
this process may run on (``os.sched_getaffinity``): the caller plus that
many minus one helper threads, started on first use.  On one CPU nothing is
started and :func:`run` calls the units inline.  There is no parameter,
config field or environment variable for the width.  Planning, mask
building, KV appends and fragments of a sparse item (a head's stripes, a
q-block's bands) stay in the caller's thread: those units are
sub-millisecond or share state, and handing them between threads costs
more than it returns (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import queue
import threading

__all__ = ["workers", "run"]

_THREAD_PREFIX = "repro-pool"
_lock = threading.Lock()
_tasks: queue.SimpleQueue = queue.SimpleQueue()
_helpers: list[threading.Thread] = []
_affinity: int | None = None
_forced: int | None = None  # set only by :func:`_forced_workers`
_in_unit = threading.local()  # .active while this thread runs a unit of run()


def workers() -> int:
    """How many threads :func:`run` spreads units over, the caller
    included: the CPUs this process may run on, read once."""
    global _affinity
    if _forced is not None:
        return _forced
    if _affinity is None:
        try:
            _affinity = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            _affinity = os.cpu_count() or 1
    return max(_affinity, 1)


def _helper_loop(tasks: queue.SimpleQueue) -> None:
    while True:
        tasks.get()()


def _start_helpers(n: int) -> None:
    with _lock:
        while len(_helpers) < n:
            thread = threading.Thread(
                target=_helper_loop,
                args=(_tasks,),
                name=f"{_THREAD_PREFIX}-{len(_helpers)}",
                daemon=True,
            )
            thread.start()
            _helpers.append(thread)


def run(fn, units) -> list:
    """``[fn(u) for u in units]``, spread over the caller and up to
    ``workers() - 1`` helper threads, each taking the next unit as it
    frees.

    Inline in the caller's thread when there is one worker, one unit, or
    the call comes from inside a unit of another ``run`` -- on a helper or
    on the caller alike -- so a unit never waits on the pool.  Each
    ``fn(u)`` must touch only state no other unit touches.  Every unit has
    finished when this returns; the first exception a unit raised then
    propagates.
    """
    units = list(units)
    n = min(workers(), len(units))
    if n < 2 or getattr(_in_unit, "active", False):
        return [fn(u) for u in units]
    results = [None] * len(units)
    claim = itertools.count()  # next() is atomic under the GIL
    done: queue.SimpleQueue = queue.SimpleQueue()

    def drain() -> None:
        _in_unit.active = True
        try:
            while (i := next(claim)) < len(units):
                results[i] = fn(units[i])
        finally:
            _in_unit.active = False

    def helper() -> None:
        try:
            drain()
        except BaseException as exc:  # re-raised in the caller
            done.put(exc)
        else:
            done.put(None)

    _start_helpers(n - 1)
    for _ in range(n - 1):
        _tasks.put(helper)
    try:
        drain()
    finally:
        errors = [done.get() for _ in range(n - 1)]
    for exc in errors:
        if exc is not None:
            raise exc
    return results


@contextlib.contextmanager
def _forced_workers(n: int):
    """Test hook: run with ``n`` workers instead of the affinity count."""
    global _forced
    previous, _forced = _forced, n
    try:
        yield
    finally:
        _forced = previous
