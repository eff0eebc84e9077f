"""Independent numpy jobs fanned out over forked worker processes.

The GBP index build (one job per stored column) and a heavy Tau-Push
query (one job per GFP source) both run jobs that share one large,
read-only state: the graph and the leaf sets. :func:`fork_map` forks its
workers, so they inherit that state instead of unpickling a copy each;
only the job keys and the results travel through pipes.
"""
from __future__ import annotations

import multiprocessing as mp
import os
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor

_worker: tuple = ()  # (fn, shared) in a forked worker


def _init_worker(fn: Callable, shared: tuple) -> None:
    global _worker
    _worker = (fn, shared)


def _run(job):
    fn, shared = _worker
    return fn(*shared, job)


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``fork`` is unavailable."""
    if "fork" not in mp.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn: Callable, jobs: Iterable, shared: tuple) -> list:
    """``[fn(*shared, job) for job in jobs]``, in job order.

    With two or more usable CPUs and jobs, the jobs run in a pool of
    ``min(usable CPUs, len(jobs))`` forked workers that lives for this
    call only, so no worker outlives it; otherwise they run one after
    another in this process. ``fn`` and ``shared`` reach the workers
    through the fork, unpickled; each job and each result is pickled.
    """
    jobs = list(jobs)
    workers = min(usable_cpus(), len(jobs))
    if workers < 2:
        return [fn(*shared, job) for job in jobs]
    # fork, so the workers share ``shared`` instead of unpickling a copy
    # each; they run only numpy kernels and take no lock that another
    # thread of this process could hold
    fork = mp.get_context("fork")
    with ProcessPoolExecutor(workers, fork, _init_worker, (fn, shared)) as pool:
        return list(pool.map(_run, jobs))
