"""Independent numpy jobs fanned out over forked worker processes.

The GBP index build (one job per stored column) and a heavy Tau-Push
query (one job per GFP source) both run jobs that share one large,
read-only state: the graph (and, for the build, the hierarchy). A
:class:`Workers` set forks its workers once, so they inherit that state
instead of unpickling a copy each. Each :meth:`Workers.map` call pickles
its small per-call context (the query's leaf sets, say) to each worker
once, then hands out job indices one at a time; only the indices and the
results travel through the pipes.

The build holds its set in a ``with`` block, so no worker outlives it.
The query path keeps one set per graph (:func:`graph_workers`): forked on
the graph's first heavy query, reused by every later query on it, and
closed when another graph asks, at :func:`close` and at interpreter exit.
A worker also exits by itself when its pipe reaches EOF.
"""
from __future__ import annotations

import atexit
import os
import pickle
import signal
import traceback
from collections.abc import Callable, Iterable
from multiprocessing.connection import Connection, Pipe, wait

# parent ends of every live worker's pipe: a newly forked worker closes
# its copies, so each worker sees EOF as soon as its own parent end closes
_live: set[Connection] = set()


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


def _serve(conn: Connection, fn: Callable, state: tuple) -> None:
    """A worker's loop: a ``(context, jobs)`` message starts a call, an
    int ``i`` runs ``fn(*state, *context, jobs[i])`` and answers
    ``(i, ok, result or exception)``. Returns at EOF."""
    context, jobs = (), []
    while True:
        try:
            msg = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        if not isinstance(msg, int):
            context, jobs = msg
            continue
        try:
            reply = (msg, True, fn(*state, *context, jobs[msg]))
        except Exception as exc:  # re-raised by the parent
            exc.add_note(f"in fan-out worker {os.getpid()}:\n{traceback.format_exc()}")
            reply = (msg, False, _portable(exc))
        conn.send(reply)


class Workers:
    """``fn(*state, *context, job)`` over forked workers.

    ``state`` reaches the workers through the fork, unpickled, so it must
    not change while they live. The workers are forked at the first
    :meth:`map` that needs them (one per usable CPU) and live until
    :meth:`close`.
    """

    def __init__(self, fn: Callable, state: tuple):
        self.fn, self.state = fn, state
        self._pids: dict[Connection, int] = {}  # parent end -> worker pid

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def map(self, jobs: Iterable, context: tuple = ()) -> list:
        """``[fn(*state, *context, job) for job in jobs]``, in job order.

        With fewer than two jobs or usable CPUs the jobs run one after
        another in this process and nothing is forked. A job that raises
        in a worker re-raises here once the other workers are idle, and
        the set stays usable. A worker that dies mid-call raises
        ``RuntimeError``; the set is closed, and the next call forks anew.
        """
        jobs = list(jobs)
        if len(jobs) < 2 or usable_cpus() < 2:
            return [self.fn(*self.state, *context, job) for job in jobs]
        try:
            if not self._pids:
                self._fork(usable_cpus())
            results, error = self._run(jobs, context)
        except BaseException:
            self._kill()
            raise
        if error is not None:
            raise error
        return results

    def _fork(self, n: int) -> None:
        for _ in range(n):
            parent_end, child_end = Pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for conn in (*_live, parent_end):
                        conn.close()
                    _serve(child_end, self.fn, self.state)
                    code = 0
                finally:
                    os._exit(code)
            child_end.close()
            self._pids[parent_end] = pid
            _live.add(parent_end)

    def _run(self, jobs: list, context: tuple) -> tuple[list, Exception | None]:
        """Hand out the jobs; (results in job order, first job error)."""
        start = pickle.dumps((context, jobs))
        results = [None] * len(jobs)
        todo = iter(range(len(jobs)))
        busy = set()
        error = None
        try:
            for conn, i in zip(self._pids, todo):
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
            raise RuntimeError(self._died(conn)) from None
        return results, error

    def _died(self, conn: Connection) -> str:
        """Reap the worker behind ``conn`` and drop it from the set (so its
        pid, once free, is never signalled); say how it ended."""
        pid = self._pids.pop(conn)
        _live.discard(conn)
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

    def _kill(self) -> None:
        """Close the set without waiting for in-flight jobs."""
        for pid in self._pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.close()

    def close(self) -> None:
        """Close the pipes, so the workers exit, and reap them."""
        pids, self._pids = self._pids, {}
        for conn in pids:
            _live.discard(conn)
            conn.close()
        for pid in pids.values():
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped elsewhere
                pass


_graph_set: Workers | None = None  # the query path's set, keyed by its graph


def graph_workers(fn: Callable, g) -> Workers:
    """The worker set running ``fn`` on graph ``g``: the live one when it
    serves the same ``fn`` on this very object, else a new one after the
    old set is closed. Holding ``g`` keeps its identity from being reused."""
    global _graph_set
    if _graph_set is None or _graph_set.fn is not fn or _graph_set.state[0] is not g:
        close()
        _graph_set = Workers(fn, (g,))
    return _graph_set


def close() -> None:
    """Close the query path's worker set, if any."""
    global _graph_set
    if _graph_set is not None:
        _graph_set.close()
        _graph_set = None


atexit.register(close)
