"""Cooperative query budgets: deadlines, derived-fact caps, cancellation.

A :class:`QueryBudget` bounds one evaluation *cooperatively*: the engine
(and the batch/columnar kernels, the maintainer, and the ad-hoc
conjunction solver) call :meth:`QueryBudget.check` at cheap
coarse-grained points -- per fixpoint iteration, per kernel step, per
maintenance round -- and the budget raises a typed
:class:`~repro.errors.EvaluationTimeout` /
:class:`~repro.errors.EvaluationCancelled` /
:class:`~repro.errors.BudgetExceededError` carrying where evaluation
stopped.  Nothing is pre-empted: between two checkpoints the engine
runs unobserved, so detection latency is bounded by the work one
checkpoint interval does (for the fixpoint loop, one iteration).

Budgets are *shared* across the layers one request touches: the same
object threads through :class:`~repro.query.query.Query`,
:class:`~repro.engine.fixpoint.Engine`,
:func:`~repro.engine.solve.solve`, and
:class:`~repro.engine.incremental.Maintainer` (as an argument of each
:meth:`~repro.engine.incremental.Maintainer.apply`: a memo's upkeep is
charged to the request that needs it, never to the one that built the
memo), so a deadline covers the whole request, not each stage
separately.  The wall-clock deadline
anchors at the first :meth:`start` (or :meth:`check`); the derived-fact
cap is per engine run (:meth:`begin_run` resets it), matching the
intuition "no single fixpoint may derive more than N facts".

``clock`` is injectable for deterministic tests: it must be a zero-arg
callable returning seconds (defaults to :func:`time.monotonic`).
"""

from __future__ import annotations

import time
from contextvars import ContextVar

from repro.errors import (
    BudgetExceededError,
    EvaluationCancelled,
    EvaluationTimeout,
)

#: Budget of the columnar execution currently running on this thread /
#: task, or None.  Columnar plans' *steps* are baked closures
#: shared across calls (and memoised for the existence path), so a
#: per-call budget cannot be captured inside them; instead the executor
#: entry points activate the budget here and the row-at-a-time fallback
#: loops (negation, superset, dynamic dispatch) consult it every
#: :data:`ROWWISE_CHECK_INTERVAL` rows.  A :class:`~contextvars.ContextVar`
#: keeps concurrent server requests -- each evaluating on its own worker
#: thread with its own per-request budget -- fully isolated.
_ACTIVE: ContextVar["QueryBudget | None"] = ContextVar(
    "repro_active_budget", default=None)

#: Rows a row-at-a-time fallback kernel processes between budget
#: checkpoints (the interpreted walk's per-256-row cadence).
ROWWISE_CHECK_INTERVAL = 256


def active_budget() -> "QueryBudget | None":
    """The budget activated for the current execution, or None."""
    return _ACTIVE.get()


def push_active(budget: "QueryBudget"):
    """Activate ``budget`` for this thread/task; returns a reset token."""
    return _ACTIVE.set(budget)


def pop_active(token) -> None:
    """Deactivate a budget previously pushed (pass its token back)."""
    _ACTIVE.reset(token)


class QueryBudget:
    """A cooperative resource budget for one query/evaluation.

    Parameters
    ----------
    timeout_ms:
        Wall-clock budget in milliseconds, or None for no deadline.
        The deadline anchors when evaluation first checks the budget.
    max_derived:
        Cap on facts derived by a single engine run (or maintained by a
        single maintenance application), or None for no cap.
    clock:
        Seconds-returning callable used for the deadline (injectable
        for tests; defaults to :func:`time.monotonic`).
    """

    __slots__ = ("timeout_ms", "max_derived", "deadline", "derived",
                 "checks", "_cancelled", "_clock")

    def __init__(self, *, timeout_ms: float | None = None,
                 max_derived: int | None = None,
                 clock=time.monotonic) -> None:
        self.timeout_ms = timeout_ms
        self.max_derived = max_derived
        self._clock = clock
        #: Absolute deadline in clock seconds, anchored by :meth:`start`.
        self.deadline: float | None = None
        #: Facts derived in the current run (see :meth:`charge`).
        self.derived = 0
        #: Checkpoints evaluated so far (stats surface).
        self.checks = 0
        self._cancelled = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "QueryBudget":
        """Anchor the deadline (idempotent); returns self."""
        if self.deadline is None and self.timeout_ms is not None:
            self.deadline = self._clock() + self.timeout_ms / 1000.0
        return self

    def begin_run(self) -> "QueryBudget":
        """Start of one engine run: anchor the deadline, reset the
        per-run derived-fact counter."""
        self.start()
        self.derived = 0
        return self

    def cancel(self) -> None:
        """Cooperatively cancel: the next checkpoint raises
        :class:`~repro.errors.EvaluationCancelled`."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def remaining_ms(self) -> float | None:
        """Milliseconds until the deadline (None without one)."""
        if self.deadline is None:
            return None
        return (self.deadline - self._clock()) * 1000.0

    # -- checkpoints ---------------------------------------------------

    def check(self, site: str, *, stratum: int | None = None,
              rule: object = None, iteration: int | None = None) -> None:
        """One cooperative checkpoint; raises when the budget is spent."""
        self.checks += 1
        if self._cancelled:
            raise EvaluationCancelled(
                "evaluation cancelled", site=site, stratum=stratum,
                rule=rule, iteration=iteration)
        deadline = self.deadline
        if deadline is None and self.timeout_ms is not None:
            deadline = self.start().deadline
        if deadline is not None and self._clock() >= deadline:
            raise EvaluationTimeout(
                f"evaluation exceeded the {self.timeout_ms:g}ms budget",
                site=site, stratum=stratum, rule=rule,
                iteration=iteration)

    def charge(self, count: int, site: str, *, stratum: int | None = None,
               rule: object = None, iteration: int | None = None) -> None:
        """Account ``count`` newly derived facts against ``max_derived``."""
        if not count:
            return
        self.derived += count
        limit = self.max_derived
        if limit is not None and self.derived > limit:
            raise BudgetExceededError(
                f"evaluation derived {self.derived} facts, over the "
                f"max_derived budget of {limit}",
                site=site, stratum=stratum, rule=rule,
                iteration=iteration)
