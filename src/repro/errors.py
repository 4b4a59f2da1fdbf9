"""Exception hierarchy for the PathLog reproduction.

Every error raised by the library derives from :class:`PathLogError`, so
callers can catch one type to handle any library failure.  Subclasses are
grouped by the pipeline stage that raises them: syntax (lexer/parser),
static analysis (scalarity / well-formedness / stratification / typing),
and evaluation (valuation, fixpoint, conflicts, resource limits).
"""

from __future__ import annotations


class PathLogError(Exception):
    """Base class for all errors raised by this library."""


class PathLogSyntaxError(PathLogError):
    """A lexical or grammatical error in PathLog source text.

    Carries the 1-based ``line`` and ``column`` of the offending token so
    frontends can point at the failure site.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class WellFormednessError(PathLogError):
    """A reference violates Definition 3 (well-formedness).

    Raised, for example, when a set-valued reference appears at the result
    position of a scalar filter (the paper's example (4.5)).
    """


class HeadError(PathLogError):
    """A rule head violates the paper's head restrictions.

    Section 6 forbids set-valued references as rule heads because the
    object they would define cannot be uniquely determined.
    """


class StratificationError(PathLogError):
    """The program cannot be stratified.

    Raised when a rule requires a completed set (a set-valued reference at
    the result position of a set-valued filter, cf. [NT89]) of a method
    that is recursively defined through that very rule.
    """


class SignatureError(PathLogError):
    """A fact, rule, or query violates the declared method signatures."""


class EvaluationError(PathLogError):
    """Base class for runtime evaluation failures."""


class UnboundVariableError(EvaluationError):
    """A variable had to be valuated but is not bound by the valuation."""


class ScalarConflictError(EvaluationError):
    """Two distinct results were derived for one scalar method application.

    ``I_->`` interprets scalar methods as partial *functions*; deriving
    both ``m(s) = a`` and ``m(s) = b`` with ``a != b`` is inconsistent in
    our equality-free setting, so the engine surfaces it as an error.
    """

    def __init__(self, method: object, subject: object, args: tuple,
                 existing: object, new: object) -> None:
        super().__init__(
            f"scalar method {method} applied to {subject} with args {args} "
            f"already yields {existing}; refusing to also derive {new}"
        )
        self.method = method
        self.subject = subject
        # Not ``args``: that is BaseException's, and holds the message.
        self.arguments = args
        self.existing = existing
        self.new = new


class ResourceLimitError(EvaluationError):
    """A configured engine limit (iterations, universe size) was exceeded.

    Head-side virtual-object creation can diverge; the paper does not
    discuss termination, so the engine enforces explicit limits instead of
    looping forever.
    """


class BudgetExceededError(EvaluationError):
    """A cooperative :class:`~repro.engine.budget.QueryBudget` ran out.

    Unlike :class:`ResourceLimitError` (hard engine safeguards), budget
    errors are *requested* by the caller -- a deadline, a derived-fact
    cap, or an explicit ``cancel()`` -- and carry where evaluation
    stopped (the check site, and the stratum / rule / iteration when the
    fixpoint loop was the one that noticed).
    """

    def __init__(self, message: str, *, site: str | None = None,
                 stratum: int | None = None, rule: object = None,
                 iteration: int | None = None) -> None:
        self.site = site
        self.stratum = stratum
        self.rule = rule
        self.iteration = iteration
        where = self.where
        super().__init__(f"{message} (stopped at {where})" if where
                         else message)

    @property
    def where(self) -> str:
        """A short description of where evaluation stopped."""
        parts = []
        if self.site:
            parts.append(self.site)
        if self.stratum is not None:
            parts.append(f"stratum {self.stratum}")
        if self.iteration is not None:
            parts.append(f"iteration {self.iteration}")
        if self.rule is not None:
            parts.append(f"rule {self.rule}")
        return ", ".join(parts)


class EvaluationTimeout(BudgetExceededError):
    """The budget's wall-clock deadline passed during evaluation."""


class EvaluationCancelled(BudgetExceededError):
    """The budget was cooperatively cancelled during evaluation."""


class UnknownNameError(PathLogError):
    """A name was looked up that the database has never seen.

    Only raised by APIs that demand existing objects (e.g. deletion);
    valuation of an unknown name simply denotes a fresh named object.
    """
