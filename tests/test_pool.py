"""The process-wide worker pool: every unit exactly once, results in order,
inline on one worker, errors raised in the caller."""

import queue
import sys
import threading
import time

import pytest

from repro import pool


def _bounded(fn, timeout=60.0):
    """Run ``fn`` in a thread and fail instead of hanging past ``timeout``."""
    out = {}
    thread = threading.Thread(target=lambda: out.update(result=fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "pool.run did not finish"
    return out["result"]


def test_every_unit_runs_once_in_order_under_contention():
    # More workers than cores and a tiny switch interval: a unit claimed
    # twice, or a result written to the wrong slot, shows as a count or an
    # order mismatch.
    runs = [0] * 5000
    threads = set()

    def unit(i):
        runs[i] += 1  # each unit owns its slot
        threads.add(threading.current_thread().name)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pool._forced_workers(8):
            got = _bounded(lambda: pool.run(unit, range(len(runs))))
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(len(runs))]
    assert runs == [1] * len(runs)
    assert len(threads) > 1


def test_one_worker_runs_inline():
    with pool._forced_workers(1):
        names = pool.run(lambda _: threading.current_thread().name, range(4))
    assert names == [threading.current_thread().name] * 4


def test_a_unit_never_waits_on_the_pool():
    # A unit that itself calls run() on a helper runs its inner units inline.
    def unit(i):
        return sum(pool.run(lambda j: i + j, range(3)))

    with pool._forced_workers(3):
        assert _bounded(lambda: pool.run(unit, range(12))) == [
            3 * i + 3 for i in range(12)
        ]


def test_a_nested_run_on_the_caller_queues_nothing(monkeypatch):
    # A unit the *caller* runs calls run() too (a packed item's dense
    # q-blocks).  Queuing helper tasks behind the outer run would park the
    # caller until the helpers had drained every outer unit.
    class CountingQueue:
        def __init__(self):
            self.tasks, self.puts = queue.SimpleQueue(), 0

        def put(self, task):
            self.puts += 1
            self.tasks.put(task)

        def get(self):
            return self.tasks.get()

    tasks = CountingQueue()
    monkeypatch.setattr(pool, "_tasks", tasks)
    monkeypatch.setattr(pool, "_helpers", [])
    ran_on = []

    def unit(i):
        ran_on.append(threading.current_thread().name)
        time.sleep(0.005)
        return sum(pool.run(lambda j: i + j, range(3)))

    def outer():
        return threading.current_thread().name, pool.run(unit, range(12))

    with pool._forced_workers(3):
        caller, got = _bounded(outer)
    assert got == [3 * i + 3 for i in range(12)]
    assert tasks.puts == 2  # the outer run's two helper tasks, nothing nested
    assert ran_on.count(caller) >= 2  # its share of 12 units, not just one


def test_errors_reach_the_caller_after_every_unit_finished():
    done = []

    def unit(i):
        if i == 7:
            raise ValueError("unit 7")
        done.append(i)

    with pool._forced_workers(4), pytest.raises(ValueError, match="unit 7"):
        pool.run(unit, range(40))
    assert sorted(done) == [i for i in range(40) if i != 7]
