import multiprocessing
import os
import time

import numpy as np
import pytest

from weakkam import workers
from weakkam.errors import ConvergenceError


def _force_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def ctx(monkeypatch):
    _force_cpus(monkeypatch, 2)
    context = workers.fork_context()
    if context is None:
        pytest.skip("no fork start method")
    return context


def _fail():
    raise ConvergenceError("did not settle", trace=[0.5, 0.25])


def test_outcomes_come_back_in_any_order_with_their_own_run_time(ctx):
    worker = workers.Worker(ctx, [("a", lambda: 1), ("b", lambda: time.sleep(0.05) or 2),
                                  ("c", lambda: os.getpid())])
    try:
        pid, _ = worker.result("c")
        assert pid != os.getpid()
        value, seconds = worker.result("b")
        assert value == 2 and 0.05 <= seconds < 5
        assert worker.result("a")[0] == 1
    finally:
        worker.close()
    assert multiprocessing.active_children() == []


def test_an_error_comes_back_whole_and_ends_the_worker(ctx):
    worker = workers.Worker(ctx, [("ok", lambda: 1), ("bad", _fail), ("after", lambda: 3)])
    try:
        assert worker.result("after") is None   # never sent: the job before it raised
        with pytest.raises(ConvergenceError) as info:
            worker.result("bad")
        assert str(info.value) == "did not settle" and info.value.trace == [0.5, 0.25]
        assert worker.result("ok")[0] == 1
    finally:
        worker.close()


def test_an_unread_large_result_does_not_hold_up_the_next_job(ctx, tmp_path):
    # 8 MB is far past a pipe's buffer; the second job still starts
    flag = tmp_path / "second job ran"
    worker = workers.Worker(ctx, [("big", lambda: np.ones(1 << 20)),
                                  ("next", lambda: flag.touch())])
    try:
        deadline = time.monotonic() + 30
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert flag.exists()
        assert worker.result("big")[0].sum() == 1 << 20
    finally:
        worker.close()


def test_close_stops_a_busy_worker(ctx):
    worker = workers.Worker(ctx, [("slow", lambda: time.sleep(60))])
    t0 = time.monotonic()
    worker.close()
    assert time.monotonic() - t0 < 10
    assert multiprocessing.active_children() == []


def test_work_stays_in_process_where_it_cannot_fork(monkeypatch):
    _force_cpus(monkeypatch, 1)
    assert workers.fork_context() is None
    assert workers._fan_out([os.getpid, os.getpid]) == [os.getpid()] * 2
    _force_cpus(monkeypatch, 2)
    assert workers._fan_out([os.getpid]) == [os.getpid()]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert workers.fork_context() is None
