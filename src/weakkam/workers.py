"""Forked worker processes: the one place the toolkit starts them.

Two helpers share one rule on where work may leave the calling process.
Workers are forked, so the jobs, which close over models, grids and drifts,
reach them without pickling; only results and exceptions travel back, by
pickle.  With one CPU (``os.sched_getaffinity``, else one), where ``fork``
is not a start method, or inside a daemonic process, which may not start
processes, nothing is forked and the callers run their jobs in process.
``multiprocessing`` is imported only where a worker may be started, so a
run that never forks does not pay for its import.

- ``_fan_out(jobs)`` runs a list of jobs in a pool of at most one worker per
  CPU and returns their results in order (the stochastic ensembles).
- ``Worker(ctx, jobs)`` starts one process that runs its jobs in order while the
  caller goes on with other work, and sends each outcome back as soon as it
  is ready; ``Worker.result`` collects one (the viscous prefetch of
  ``vv_analysis.Artifacts``).  It is a bare ``Process`` with a one-way
  ``Pipe``: unlike a ``Pool``, it leaves no handler thread in the caller, so
  the caller may still fork while it runs.
"""

from __future__ import annotations

import os
import threading
import time


def _cpus() -> int:
    """The number of CPUs this process may run on, or 1 where the OS cannot tell
    (``os.sched_getaffinity`` exists on Linux only)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_context():
    """The ``fork`` context to start workers from, or None where work should
    stay in this process: one CPU, no ``fork`` start method, or a daemonic
    caller."""
    if _cpus() < 2:
        return None
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return multiprocessing.get_context("fork")


_jobs = ()   # in a forked pool worker, the jobs of the pool that started it


def _adopt_jobs(jobs) -> None:
    global _jobs
    _jobs = jobs


def _run_job(i: int):
    return _jobs[i]()


def _fan_out(jobs: list) -> list:
    """Results of the zero-argument callables ``jobs``, in order.

    The jobs run in min(len(jobs), CPUs) forked workers; they reach the
    workers as the pool initializer's arguments, which a forked worker
    inherits without pickling.  An exception raised by a job is raised here,
    with its class and message.  With one job, or where ``fork_context``
    refuses, the jobs run here.
    """
    ctx = fork_context() if len(jobs) > 1 else None
    if ctx is None:
        return [job() for job in jobs]
    pool = ctx.Pool(min(len(jobs), _cpus()), _adopt_jobs, (jobs,))
    try:
        return pool.map(_run_job, range(len(jobs)), chunksize=1)
    finally:
        pool.close()
        pool.join()


def _send_all(outbox, conn) -> None:
    """Send the outbox's messages until its None; stop at the first that cannot
    be sent (an unpicklable result), which the reader then sees as the end."""
    for message in iter(outbox.get, None):
        try:
            conn.send(message)
        except Exception:
            return


def _serve(jobs: list, conn) -> None:
    """A ``Worker``'s body: run the (key, job) pairs in order, and put
    (key, raised, outcome, seconds) in the outbox as each one ends, where
    seconds is the job's own run time.  A job that raises sends its
    exception, and nothing is sent after it.  A thread sends, so a result
    larger than the pipe's buffer does not hold the next job up until the
    reader takes it."""
    import queue

    outbox = queue.SimpleQueue()
    sender = threading.Thread(target=_send_all, args=(outbox, conn))
    sender.start()
    try:
        for key, job in jobs:
            t0 = time.perf_counter()
            try:
                outcome, raised = job(), False
            except Exception as exc:
                outcome, raised = exc, True
            outbox.put((key, raised, outcome, time.perf_counter() - t0))
            if raised:
                break
    finally:
        outbox.put(None)
        sender.join()
        conn.close()


class Worker:
    """One forked process running the (key, zero-argument job) pairs ``jobs`` in order.

    Start it only where ``fork_context`` returns a context, and pass that
    context.  The worker is daemonic, so it cannot outlive an interpreter
    that exits without ``close``.
    """

    def __init__(self, ctx, jobs: list):
        self._conn, send = ctx.Pipe(duplex=False)
        self._process = ctx.Process(target=_serve, args=(jobs, send), daemon=True)
        self._process.start()
        send.close()   # so the reader sees the end once the worker's copy closes
        self._received = {}

    def result(self, key):
        """(value, seconds) of job ``key``, waiting for it if need be; its
        exception, with its class, message and attributes, if it raised; or
        None if the worker ended without sending it (a job before it raised,
        or the worker died).  Outcomes sent before ``key``'s are kept for
        their own call."""
        while key not in self._received:
            try:
                k, *outcome = self._conn.recv()
            except EOFError:
                return None
            self._received[k] = outcome
        raised, outcome, seconds = self._received.pop(key)
        if raised:
            raise outcome
        return outcome, seconds

    def close(self) -> None:
        """Terminate the process, if it still runs, and reap it."""
        self._process.terminate()
        self._process.join()
        self._conn.close()
