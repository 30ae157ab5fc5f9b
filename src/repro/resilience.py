"""Cooperative deadlines and resource budgets for the exact kernels.

The tractability guarantees of the dichotomy bound the growth of a route's
cost, not one run of it: a route the router picks by rule can still blow up
on a real workload (an OBDD of large width, a lifted plan that scans far
more rows than the caller can wait for).  This module is the *leaf*
layer of the resilience subsystem: a :class:`Deadline` (wall clock) and a
:class:`ResourceBudget` (node / row caps around a deadline) that the kernels
consult at cooperative checkpoints —

* :meth:`repro.booleans.obdd.OBDD.make_node` charges one node per unique
  allocation, which covers ``build_from_clauses``, every ``apply``, and
  every restriction through the single hash-consing choke point;
* the OBDD evaluation passes over the columns tick the wall clock every
  few thousand nodes;
* the lifted executor charges one row per fact a ground atom scans (the
  whole relation, before the scan) and polls the wall clock once per plan
  node.

Exhaustion raises the *typed* errors :class:`repro.errors.BudgetExceeded`
and :class:`repro.errors.DeadlineExceeded` — an aborted evaluation never
returns a partial value.  Budget caps are **per attempt** (the router's
failover chain calls :meth:`ResourceBudget.reset_usage` between routes);
the deadline is global to the call.

Activation is ambient, not threaded through every kernel signature: the
engine activates a budget around an evaluation (:func:`activate`), the
kernels read the module global :data:`ACTIVE` with a cheap ``is not None``
test on their hot paths, and nested activations restore the previous budget
on exit.  The design is deliberately single-threaded per process — workers
in :class:`repro.engine.parallel.ParallelEngine` each own their process and
therefore their own ambient slot.

This module sits *below* :mod:`repro.engine` (it imports only the error
hierarchy) so the kernels can use it without importing the engine package;
the engine adds failover (:class:`repro.engine.session.CompilationEngine`)
and degradation (:mod:`repro.engine.router`) on top.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from time import monotonic
from typing import Iterator

from repro.errors import BudgetExceeded, CompilationError, DeadlineExceeded

#: How many charged units pass between wall-clock consultations; one
#: ``monotonic()`` call per interval keeps the checkpoint overhead on the
#: allocation path well under the benchmark gate.
CHECK_INTERVAL = 1024


class Deadline:
    """A wall-clock instant after which :meth:`check` raises.

    Built from :func:`time.monotonic` so system clock adjustments cannot
    fire (or defer) it; compare :meth:`remaining` for introspection.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The deadline ``seconds`` from now (must be positive)."""
        if seconds <= 0:
            raise CompilationError("deadline seconds must be positive")
        return cls(monotonic() + float(seconds))

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - monotonic()

    def expired(self) -> bool:
        return monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` once expired."""
        overshoot = monotonic() - self.expires_at
        if overshoot >= 0:
            raise DeadlineExceeded(
                f"wall-clock deadline exceeded by {overshoot:.3f}s"
            )

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


class ResourceBudget:
    """Caps on the work one evaluation attempt may perform.

    ``node_limit`` bounds OBDD node *allocations* (unique-table inserts:
    reduced and hash-consed, so re-derived nodes are free); ``row_limit``
    bounds the facts the lifted executor's ground atoms scan; ``deadline``
    bounds wall-clock time, consulted every :data:`CHECK_INTERVAL` charged
    units and at every explicit :meth:`checkpoint`.  Any subset may be ``None``
    (uncapped).  ``timeout`` is a convenience spelling for
    ``deadline=Deadline.after(timeout)``.
    """

    __slots__ = ("node_limit", "row_limit", "deadline", "nodes_used", "rows_used", "_countdown")

    def __init__(
        self,
        node_limit: int | None = None,
        row_limit: int | None = None,
        deadline: Deadline | None = None,
        timeout: float | None = None,
    ) -> None:
        if node_limit is not None and node_limit < 1:
            raise CompilationError("node_limit must be at least 1")
        if row_limit is not None and row_limit < 1:
            raise CompilationError("row_limit must be at least 1")
        if timeout is not None:
            if deadline is not None:
                raise CompilationError("pass either deadline or timeout, not both")
            deadline = Deadline.after(timeout)
        self.node_limit = node_limit
        self.row_limit = row_limit
        self.deadline = deadline
        self.nodes_used = 0
        self.rows_used = 0
        self._countdown = CHECK_INTERVAL

    # -- charging (the kernel-facing hot path) ---------------------------------

    def charge_nodes(self, count: int = 1) -> None:
        """Account for ``count`` OBDD node allocations; raise when over cap."""
        self.nodes_used += count
        if self.node_limit is not None and self.nodes_used > self.node_limit:
            raise BudgetExceeded(
                f"node budget exhausted: {self.nodes_used} allocations"
                f" > limit {self.node_limit}"
            )
        self._countdown -= count
        if self._countdown <= 0:
            self._countdown = CHECK_INTERVAL
            if self.deadline is not None:
                self.deadline.check()

    def charge_rows(self, count: int = 1) -> None:
        """Account for ``count`` lifted-executor rows; raise when over cap.

        A row is one fact scanned by a ground atom of a safe plan: each scan
        charges its relation's fact count once, before it reads a fact."""
        self.rows_used += count
        if self.row_limit is not None and self.rows_used > self.row_limit:
            raise BudgetExceeded(
                f"row budget exhausted: {self.rows_used} rows"
                f" > limit {self.row_limit}"
            )
        self._countdown -= count
        if self._countdown <= 0:
            self._countdown = CHECK_INTERVAL
            if self.deadline is not None:
                self.deadline.check()

    def checkpoint(self) -> None:
        """An explicit wall-clock checkpoint (sweep loops call this)."""
        if self.deadline is not None:
            self.deadline.check()

    # -- lifecycle -------------------------------------------------------------

    def reset_usage(self) -> None:
        """Zero the usage counters (the failover chain resets per attempt).

        The deadline is deliberately *not* reset: caps bound each route
        attempt, the wall clock bounds the whole call.
        """
        self.nodes_used = 0
        self.rows_used = 0
        self._countdown = CHECK_INTERVAL

    def usage(self) -> dict[str, int]:
        """A snapshot of the charged counters (for reports and tests)."""
        return {"nodes": self.nodes_used, "rows": self.rows_used}

    def activate(self) -> "_Activation":
        """Make this the ambient budget for a ``with`` block."""
        return activate(self)

    def __repr__(self) -> str:
        return (
            f"ResourceBudget(nodes={self.nodes_used}/{self.node_limit},"
            f" rows={self.rows_used}/{self.row_limit},"
            f" deadline={self.deadline!r})"
        )


#: The ambient budget, or None.  Kernels read this directly (an ``is not
#: None`` attribute test per checkpoint site); everyone else goes through
#: :func:`active_budget` / :func:`activate`.  Single-threaded by design.
ACTIVE: ResourceBudget | None = None

_Activation = AbstractContextManager[ResourceBudget]


def active_budget() -> ResourceBudget | None:
    """The currently active ambient budget (None when none is active)."""
    return ACTIVE


@contextmanager
def activate(budget: ResourceBudget) -> Iterator[ResourceBudget]:
    """Install ``budget`` as the ambient budget; restore the previous on exit.

    Re-entrant: nested activations stack, so an engine call made while
    another budget is active sees only its own caps until it returns.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = budget
    try:
        yield budget
    finally:
        ACTIVE = previous
