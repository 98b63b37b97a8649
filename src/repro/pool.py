"""The process-wide worker pool prefill's independent row work runs on.

Two kinds of work go here, and nothing else:

* the dense q-blocks of a packed attention item
  (:func:`~repro.attention.packed.packed_block_sparse_attention`) -- 64-row
  blocks that write disjoint output rows and share no state;
* the row parts of a prefill step's token-packed projection GEMMs
  (:class:`~repro.model.layers.AttentionLayer`).

Both compute the same bits on any thread and in any order, so pooled and
inline execution are bitwise equal.  The pool is as wide as the set of CPUs
this process may run on (``os.sched_getaffinity``): the caller plus that
many minus one helper threads, started on first use.  On one CPU nothing is
started and :func:`run` calls the units inline.  There is no parameter,
config field or environment variable for the width.  Decode, planning and
the sparse parts of the packed kernel stay in the caller's thread: their
units are sub-millisecond, and handing them between threads costs more
than it returns (docs/PERFORMANCE.md).
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
    the caller is itself a helper (a unit never waits on the pool).  Each
    ``fn(u)`` must touch only state no other unit touches.  Every unit has
    finished when this returns; the first exception a unit raised then
    propagates.
    """
    units = list(units)
    n = min(workers(), len(units))
    if n < 2 or threading.current_thread().name.startswith(_THREAD_PREFIX):
        return [fn(u) for u in units]
    results = [None] * len(units)
    claim = itertools.count()  # next() is atomic under the GIL
    done: queue.SimpleQueue = queue.SimpleQueue()

    def drain() -> None:
        while (i := next(claim)) < len(units):
            results[i] = fn(units[i])

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
