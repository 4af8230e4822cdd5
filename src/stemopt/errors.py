"""Exception types shared across the solver modules."""


def add_note(exc: BaseException, note: str) -> None:
    """`exc.add_note(note)` of PEP 678, also on Python 3.10, which lacks the
    method: the note joins `exc.__notes__`, which tracebacks print from 3.11
    on and the CLI prints below its error line."""
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


class StemOptError(Exception):
    """Base class for all stemopt errors."""


class NoSignChangeError(StemOptError):
    """Root bracket endpoints have the same sign."""


class MaxIterationsError(StemOptError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class StepUnderflowError(StemOptError):
    """Adaptive step size fell below the machine-scaled floor.

    Usually signals an unresolved singularity inside the integration span.
    """


class NonFiniteError(StemOptError):
    """A function produced NaN/inf away from its declared singular endpoints."""


class NotDifferentiableError(StemOptError):
    """Derivative requested at a jump point of a step profile."""


class DomainError(StemOptError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateDenominatorError(DomainError):
    """Feedback denominator vanished (costate ratio q/I reached 1 with p > 0)."""


class NoCrossingError(StemOptError):
    """Payoff-equality bisection found no sign change."""


class NoBracketError(StemOptError):
    """A scanned residual has no sign change over its sampled range."""


class BudgetExceededError(StemOptError):
    """Oracle search budget exceeded."""


class NotConvergedError(StemOptError):
    """Fixed-point or sweep iteration failed to reach tolerance.

    `history` holds the change of every iteration, where the iteration
    records one.
    """

    history: tuple[float, ...] = ()


class ParseError(StemOptError):
    """Scenario file could not be parsed."""


class ValidationError(StemOptError):
    """Scenario contents violate the schema.

    `field` names the offending key, `reason` says why.
    """

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class NoArtifactsError(StemOptError):
    """Plot-data export requested on a directory without run artifacts."""
