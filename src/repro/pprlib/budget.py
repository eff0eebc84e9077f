"""Operation budget — the reproduction's analog of the paper's wall-clock
timeouts (1000 s response / 12 h preprocessing).

All single-thread kernels charge "edge operations" (a push along one arc, a
random-walk step, or one power-iteration arc traversal) to a shared
:class:`OpBudget`. When the budget is exhausted the kernel raises
:class:`OpBudgetExceeded`; the efficiency harness reports the paper's "-".
Counting operations instead of seconds makes the timeout deterministic and
machine-independent while preserving which methods hit it (the paper's
PI/FORA/FORA+/ResAcc all exceed 1000 s on every large graph, Table 8).
"""
from __future__ import annotations


class OpBudgetExceeded(RuntimeError):
    """Raised when a kernel exceeds its operation budget (paper's '-')."""

    def __init__(self, ops: int, limit: int):
        super().__init__(f"op budget exceeded: {ops} > {limit}")
        self.ops = ops
        self.limit = limit

    def __reduce__(self):
        # rebuild from (ops, limit), so the error (and any note on it)
        # survives the pipe from a fan-out worker
        return type(self), (self.ops, self.limit), self.__dict__


class OpBudget:
    """Mutable edge-operation counter with an optional hard limit."""

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.ops = 0

    def charge(self, n: int) -> None:
        self.ops += int(n)
        if self.limit is not None and self.ops > self.limit:
            raise OpBudgetExceeded(self.ops, self.limit)
