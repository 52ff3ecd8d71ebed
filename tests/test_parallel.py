"""`parallel.run`: results in call order, every call once, the caller's
thread taking calls too, and a worker's exception raised to the caller."""

import sys
import threading
import time

import pytest

from trajcurate import parallel


def test_results_come_in_call_order_whichever_finishes_first(monkeypatch):
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    delays = [0.05, 0.0, 0.02, 0.0]

    def call(i):
        def run():
            time.sleep(delays[i])
            return i
        return run

    assert parallel.run([call(i) for i in range(4)]) == [0, 1, 2, 3]
    assert parallel.run([]) == []


def test_caller_takes_a_call_and_a_workers_exception_is_raised(monkeypatch):
    """Two calls that wait for each other run on two threads at once, one of
    them the caller's; the one on the worker raises."""
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    both_running = threading.Barrier(2, timeout=10)
    caller = threading.get_ident()
    threads = []

    def call():
        both_running.wait()
        threads.append(threading.get_ident())
        if threading.get_ident() != caller:
            raise FloatingPointError("worker")

    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker"):
        parallel.run([call, call])
    assert caller in threads and len(set(threads)) == 2
    assert threading.active_count() == before


def test_one_core_runs_every_call_on_the_caller(monkeypatch):
    monkeypatch.setattr(parallel, "cores", lambda: 1)
    caller = threading.get_ident()
    assert parallel.run([threading.get_ident] * 3) == [caller] * 3


def test_many_threads_run_each_call_exactly_once(monkeypatch):
    """More threads than cores and a short switch interval: a call handed
    out twice, or a result written to the wrong slot, shows."""
    monkeypatch.setattr(parallel, "cores", lambda: 8)
    ran = []

    def call(i):
        def run():
            ran.append(i)
            return i * i
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran.clear()
            assert parallel.run([call(i) for i in range(50)]) == [i * i for i in range(50)]
            assert sorted(ran) == list(range(50))
    finally:
        sys.setswitchinterval(interval)
