"""Independent numpy jobs fanned out over forked worker processes.

The GBP index build (one job per stored column) and a heavy Tau-Push
query (one job per GFP source) both run jobs that read one large,
read-only graph. :func:`fan_out` keeps one worker set, for one graph at
a time: forked on the graph's first fanned call, whether that is the
index build or a query, so the workers inherit the graph instead of
unpickling a copy each; reused by every later build or query on it; and
closed when another graph asks, at :func:`close` and at interpreter
exit. A worker also exits by itself when its pipe reaches EOF. Only a
:class:`CSRGraph` is forked for: any other graph (a ``SparkGraph``,
whose driver holds a live py4j gateway) runs its jobs in this process.

Each call pickles its function (by reference) and its small per-call
context (the query's leaf sets, or the build's hierarchy) to each worker
once, then hands out job indices one at a time; only the indices and the
results travel through the pipes.
"""
from __future__ import annotations

import atexit
import os
import pickle
import signal
import traceback
from collections.abc import Callable, Iterable
from multiprocessing.connection import Connection, Pipe, wait

from repro.graphs.csr import CSRGraph

_graph = None  # the graph the live set serves; holding it keeps its id from reuse
_pids: dict[Connection, int] = {}  # the live set: parent end -> worker pid


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``fork`` is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0))


def _portable(exc: Exception) -> Exception:
    """``exc``, or a RuntimeError with its type and message when it does
    not survive pickling (an ``__init__`` that ``exc.args`` cannot fill)."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # any error of any reduce or __init__ is a failure here
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _serve(conn: Connection, g) -> None:
    """A worker's loop: a ``(fn, context, jobs)`` message starts a call,
    an int ``i`` runs ``fn(g, *context, jobs[i])`` and answers
    ``(i, ok, result or exception)``. Returns at EOF."""
    fn, context, jobs = None, (), []
    while True:
        try:
            msg = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        if not isinstance(msg, int):
            fn, context, jobs = msg
            continue
        try:
            reply = (msg, True, fn(g, *context, jobs[msg]))
        except Exception as exc:  # re-raised by the parent
            exc.add_note(f"in fan-out worker {os.getpid()}:\n{traceback.format_exc()}")
            reply = (msg, False, _portable(exc))
        conn.send(reply)


def fan_out(fn: Callable, g, jobs: Iterable, context: tuple = ()) -> list:
    """``[fn(g, *context, job) for job in jobs]``, in job order.

    ``fn`` must be a module-level function (it is pickled by name), and
    ``g`` reaches the workers through the fork, unpickled, so it must not
    change while they live. With fewer than two jobs or usable CPUs, or
    a ``g`` that is not a :class:`CSRGraph`, the jobs run one after
    another in this process and nothing is forked. Otherwise they run in ``g``'s worker set (one worker per usable CPU),
    forked now unless it is alive. A job that raises in a worker
    re-raises here once the other workers are idle, and the set stays
    usable. A worker that dies mid-call raises ``RuntimeError``; the set
    is closed, and the next call forks anew.
    """
    jobs = list(jobs)
    if len(jobs) < 2 or usable_cpus() < 2 or not isinstance(g, CSRGraph):
        return [fn(g, *context, job) for job in jobs]
    try:
        if _graph is not g:
            close()
            _fork(g, usable_cpus())
        results, error = _run(fn, jobs, context)
    except BaseException:
        _kill()
        raise
    if error is not None:
        raise error
    return results


def _fork(g, n: int) -> None:
    global _graph
    _graph = g
    for _ in range(n):
        parent_end, child_end = Pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # so each worker sees EOF as soon as its own parent end closes
                for conn in (*_pids, parent_end):
                    conn.close()
                _serve(child_end, g)
                code = 0
            finally:
                os._exit(code)
        child_end.close()
        _pids[parent_end] = pid


def _run(fn: Callable, jobs: list, context: tuple) -> tuple[list, Exception | None]:
    """Hand out the jobs; (results in job order, first job error)."""
    start = pickle.dumps((fn, context, jobs))
    results = [None] * len(jobs)
    todo = iter(range(len(jobs)))
    busy = set()
    error = None
    try:
        for conn, i in zip(_pids, todo):
            conn.send_bytes(start)
            conn.send(i)
            busy.add(conn)
        while busy:
            for conn in wait(busy):
                i, ok, value = conn.recv()
                if ok:
                    results[i] = value
                elif error is None:
                    error = value
                i = next(todo, None) if error is None else None
                if i is None:
                    busy.discard(conn)
                else:
                    conn.send(i)
    except (EOFError, OSError):  # the worker behind ``conn`` is gone
        raise RuntimeError(_died(conn)) from None
    return results, error


def _died(conn: Connection) -> str:
    """Reap the worker behind ``conn`` and drop it from the set (so its
    pid, once free, is never signalled); say how it ended."""
    pid = _pids.pop(conn)
    conn.close()
    try:
        os.kill(pid, signal.SIGKILL)  # a no-op on a worker that has exited
        _, status = os.waitpid(pid, 0)
    except ChildProcessError:
        return f"fan-out worker {pid} exited mid-call"
    if os.WIFSIGNALED(status):
        how = f"was killed by signal {os.WTERMSIG(status)}"
    else:
        how = f"exited with status {os.waitstatus_to_exitcode(status)}"
    return f"fan-out worker {pid} {how} mid-call"


def _kill() -> None:
    """Close the set without waiting for in-flight jobs."""
    for pid in _pids.values():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    close()


def close() -> None:
    """Close the live set's pipes, so its workers exit, and reap them."""
    global _graph, _pids
    pids, _graph, _pids = _pids, None, {}
    for conn in pids:
        conn.close()
    for pid in pids.values():
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped elsewhere
            pass


atexit.register(close)
